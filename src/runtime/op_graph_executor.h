/**
 * @file
 * DAG-parallel execution of DSL programs — the runtime layer between
 * the functional FHE simulator and the serving engine.
 *
 * F1 exploits parallelism below the program (limbs, lanes); this
 * executor adds the level above it: each HeOp's ciphertext operands
 * define a dependency DAG over the Program's op list, and independent
 * ops execute concurrently on the shared thread pool. Per-op FHE
 * kernels called from a pool worker take the pool's inline path, so
 * the two levels compose without nesting deadlocks: wide op-level
 * parallelism narrows gracefully into per-limb parallelism.
 *
 * One job per graph traversal, under one of two schedulers
 * (ExecutionPolicy::scheduler):
 *  - kSerial: one op at a time in deterministic topological (program)
 *    order — the golden order the other scheduler is checked against.
 *  - kWorkStealing (default): continuation scheduling. Each
 *    completed op decrements its consumers' dependency counts and
 *    enqueues newly-ready ops on the completing worker's deque; idle
 *    workers steal, so no thread waits for a slower peer. When
 *    ExecutionPolicy::scheduleHints carries the compiler's static
 *    schedule, ready ops are prioritized critical-path-first
 *    (cycle-scheduler issue order) with memory-scheduler liveness
 *    rank as the tie-break — F1's §4.4 static schedule driving
 *    dynamic execution.
 *
 * Determinism contract (unchanged across schedulers): every
 * homomorphic op is a pure function of its operands (hint randomness
 * is derived per identity — see hintSeed — and encryption randomness
 * comes from a per-run Rng consumed in program order during the
 * serial prepare phase), so outputs are bit-identical for either
 * scheduler, any thread count, schedule hints, and concurrent-job
 * interleaving. tests/test_runtime.cpp asserts this.
 *
 * Liveness: the executor counts the consumers of every ciphertext
 * handle and releases each ciphertext after its last consumer
 * completes, instead of holding every intermediate until the program
 * ends. ExecutionResult::peakResidentCiphertexts reports the
 * high-water mark.
 */
#ifndef F1_RUNTIME_OP_GRAPH_EXECUTOR_H
#define F1_RUNTIME_OP_GRAPH_EXECUTOR_H

#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "common/lru_cache.h"
#include "compiler/compiler.h"
#include "compiler/program.h"
#include "fhe/bgv.h"
#include "fhe/ckks.h"
#include "obs/telemetry.h"

namespace f1 {

/** How the executor walks the op graph. */
enum class SchedulerKind : uint8_t {
    kSerial,       //!< topological program order, one op at a time
    kWorkStealing, //!< continuation scheduling on per-worker deques
};

/**
 * Slot data bound to one input handle. The alternative encodes the
 * scheme's slot type — BGV binds integer slots, CKKS binds complex
 * slots — and whether the handle is an encrypted input (kInput) or a
 * plaintext operand (kInputPlain) is determined by the handle's op
 * kind, not the binding. A future third scheme (TFHE gate inputs,
 * ROADMAP item 5) adds a variant alternative here instead of another
 * pair of parallel maps.
 */
using InputBinding =
    std::variant<std::vector<uint64_t>,               // BGV slots
                 std::vector<std::complex<double>>>;  // CKKS slots

/**
 * Per-run inputs, keyed by DSL handle. Handles without supplied data
 * get deterministic pseudo-random values drawn from `seed`; `seed`
 * also drives encryption randomness, so a run's ciphertext bits are a
 * function of (program, inputs, seed) alone. Binding slot data of the
 * wrong scheme for the executing backend fails with a diagnostic at
 * prepare time.
 */
struct RuntimeInputs
{
    std::map<int, InputBinding> bindings;
    uint64_t seed = 0xdada;

    /** Correlation id stamped by the serving engine at submit
     *  (obs/tracectx.h); the executor carries it into tracer spans,
     *  flight-recorder events, and the ExecutionProfile so one job's
     *  artifacts share a key. Observability only — it NEVER affects
     *  outputs (the determinism contract stays (program, inputs,
     *  seed)). 0 = untraced. */
    uint64_t traceId = 0;

    void
    bind(int handle, std::vector<uint64_t> slots)
    {
        bindings[handle] = std::move(slots);
    }

    void
    bind(int handle, std::vector<std::complex<double>> slots)
    {
        bindings[handle] = std::move(slots);
    }
};

/**
 * Per-run results and scheduler statistics, populated by both
 * schedulers:
 *  - opsExecuted / peakResidentCiphertexts / encodingCache*: always.
 *  - peakOpsInFlight: 1 under kSerial; the peak number of ops
 *    concurrently running under kWorkStealing.
 *  - steals: nonzero only under kWorkStealing.
 */
struct ExecutionResult
{
    double wallMs = 0; //!< timed execute phase (prepare excluded)
    std::map<int, Ciphertext> outputs; //!< by DSL handle

    /** Non-source ops the scheduler ran (inputs are materialized by
     *  the prepare phase and not counted). */
    size_t opsExecuted = 0;

    /** Jobs in the traversal that produced this result: always 1,
     *  since every traversal runs one job. Kept only because the
     *  benchmark reads it. */
    size_t batchSize = 1;

    /** High-water mark of simultaneously live ciphertexts (inputs and
     *  intermediates; outputs are copied out and not counted). */
    size_t peakResidentCiphertexts = 0;

    size_t peakOpsInFlight = 0; //!< most ops running at once
    size_t steals = 0; //!< ops taken from another worker's deque (WS)

    /** Plaintext-encoding cache traffic attributable to this run. */
    uint64_t encodingCacheHits = 0;
    uint64_t encodingCacheMisses = 0;

    /** Set iff ExecutionPolicy::telemetry.profile. */
    std::shared_ptr<const obs::ExecutionProfile> profile;

    /** Set iff ExecutionPolicy::telemetry.trace. */
    std::shared_ptr<const obs::Trace> trace;
};

/**
 * Content-addressed key for cached plaintext encodings: scheme/param
 * fingerprint plus a hash of the slot data. Content addressing (rather
 * than (program, handle) addressing) keeps the cache correct across
 * tenants that reuse a program shape with different constants.
 *
 * BGV encodings depend only on (params, slots), so shapeFp stays 0.
 * CKKS encodings additionally depend on the encoding scale and the
 * ciphertext level they are lifted to, so shapeFp folds both in —
 * the same slot data encoded at two scales occupies two entries. The
 * scheme tag inside paramsFp keeps the two key spaces disjoint, so
 * one shared cache serves mixed traffic.
 */
struct EncodingKey
{
    uint64_t paramsFp = 0; //!< scheme tag + ring/modulus fingerprint
    uint64_t dataHash = 0; //!< content hash of the slot data
    uint64_t shapeFp = 0;  //!< CKKS (scale, level); 0 for BGV
    bool operator==(const EncodingKey &) const = default;
};

struct EncodingKeyHash
{
    size_t
    operator()(const EncodingKey &k) const
    {
        return static_cast<size_t>(k.paramsFp ^ k.dataHash ^
                                   (k.shapeFp * 0x9e3779b97f4a7c15ULL));
    }
};

/**
 * A cached plaintext encoding: BGV centered coefficients, or a CKKS
 * plaintext polynomial already lifted to its target (scale, level).
 */
using EncodedPlaintext = std::variant<std::vector<int64_t>, RnsPoly>;

/** Shared cache of plaintext encodings for BOTH schemes (the serving
 *  engine owns one and passes it to every job). */
using EncodingCache =
    LruCache<EncodingKey, EncodedPlaintext, EncodingKeyHash>;

/**
 * Everything that shapes one execution, in one struct — the runtime
 * API is (program, inputs, policy), nothing hides in setter state.
 *
 * scheduleHints must describe the same program the executor was built
 * for (size checked at execute()); nullptr runs hint-free with
 * ascending-handle priority, which preserves the historical order.
 * threadBudget caps the worker count of the work-stealing scheduler
 * (0 = the whole pool); kSerial ignores it. encodingCache
 * nullptr means encode per run. telemetry turns on per-op tracing
 * and/or a per-run ExecutionProfile (both off by default; disabled
 * runs pay only thread-local null checks — see obs/telemetry.h).
 */
struct ExecutionPolicy
{
    SchedulerKind scheduler = SchedulerKind::kWorkStealing;
    const ScheduleHints *scheduleHints = nullptr;
    unsigned threadBudget = 0;
    EncodingCache *encodingCache = nullptr;
    obs::TelemetryOptions telemetry;
};

/**
 * Executes one Program against a scheme backend. The graph analysis
 * (dependents, in-degrees, consumer counts, topological order, cycle
 * rejection) happens once at construction; execute() is re-entrant
 * and holds all per-run state on the stack, so distinct jobs over the
 * same program may share one executor or build their own — both are
 * safe concurrently.
 */
class OpGraphExecutor
{
  public:
    OpGraphExecutor(const Program &prog, BgvScheme *bgv);
    OpGraphExecutor(const Program &prog, CkksScheme *ckks);

    /** Runs one job, `in`, under `policy`. */
    ExecutionResult execute(const RuntimeInputs &in = {},
                            const ExecutionPolicy &policy = {}) const;

  private:
    struct RunState;

    void buildGraph();
    void prepare(const RuntimeInputs &in, RunState &st) const;
    std::shared_ptr<const std::vector<int64_t>>
    encodeBgvPlain(std::span<const uint64_t> slots,
                   RunState &st) const;
    std::shared_ptr<const RnsPoly>
    encodeCkksPlain(std::span<const std::complex<double>> slots,
                    double scale, size_t level, RunState &st) const;
    void executeOp(int h, RunState &st) const;
    //! executeOp + telemetry
    void runOp(int h, RunState &st) const;
    void runSerial(RunState &st) const;
    void runWorkStealing(RunState &st,
                         const ExecutionPolicy &policy) const;

    const Program &prog_;
    uint64_t fp_ = 0; //!< prog_.fingerprint(), cached for event hooks
    BgvScheme *bgv_ = nullptr;
    CkksScheme *ckks_ = nullptr;

    // Graph structure, fixed per program.
    std::vector<std::vector<int>> dependents_; //!< ct-edge successors
    std::vector<int> indegree_;  //!< ct-operand count per op
    std::vector<int> consumers_; //!< ct uses of each op's result
    std::vector<int> topoOrder_; //!< ascending-handle Kahn order
};

} // namespace f1

#endif // F1_RUNTIME_OP_GRAPH_EXECUTOR_H
