#include "runtime/op_graph_executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <queue>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/time_util.h"
#include "obs/calib.h"
#include "obs/eventlog.h"
#include "obs/tracectx.h"

namespace f1 {

namespace {

/**
 * Ciphertext operands of an op, written to out[0..1] (-1 = none).
 * kAddPlain/kMulPlain's b names a plaintext handle, not a ciphertext
 * edge; kInput/kInputPlain are sources.
 */
void
ctOperands(const HeOp &op, int out[2])
{
    out[0] = out[1] = -1;
    switch (op.kind) {
      case HeOpKind::kInput:
      case HeOpKind::kInputPlain:
        break;
      case HeOpKind::kAdd:
      case HeOpKind::kSub:
      case HeOpKind::kMul:
        out[0] = op.a;
        out[1] = op.b;
        break;
      case HeOpKind::kAddPlain:
      case HeOpKind::kMulPlain:
      case HeOpKind::kRotate:
      case HeOpKind::kConjugate:
      case HeOpKind::kModSwitch:
      case HeOpKind::kOutput:
        out[0] = op.a;
        break;
    }
}

bool
producesCiphertext(const HeOp &op)
{
    return op.kind != HeOpKind::kOutput &&
           op.kind != HeOpKind::kInputPlain;
}

bool
isSource(const HeOp &op)
{
    return op.kind == HeOpKind::kInput ||
           op.kind == HeOpKind::kInputPlain;
}

// Static names for trace spans and profile op-kind keys, indexed by
// HeOpKind. The collector's fixed-size op slots must cover the enum.
constexpr const char *kOpKindNames[] = {
    "input",     "input_plain", "add",    "sub",
    "add_plain", "mul_plain",   "mul",    "rotate",
    "conjugate", "mod_switch",  "output",
};
constexpr size_t kOpKindCount =
    sizeof(kOpKindNames) / sizeof(kOpKindNames[0]);
static_assert(size_t(HeOpKind::kOutput) + 1 == kOpKindCount,
              "kOpKindNames is out of sync with HeOpKind");
static_assert(kOpKindCount <= obs::ProfileCollector::kMaxOpKinds,
              "HeOpKind outgrew ProfileCollector's op slots");

const char *
opKindName(HeOpKind kind)
{
    return kOpKindNames[size_t(kind)];
}

/** Registry-resolved executor metrics; resolved once, process-wide. */
struct ExecutorMetrics
{
    obs::Counter &runs;
    obs::Counter &ops;
    obs::Counter &steals;
    obs::Histogram &executeMs;

    static ExecutorMetrics &
    get()
    {
        static ExecutorMetrics m{
            obs::MetricsRegistry::global().counter("executor.runs"),
            obs::MetricsRegistry::global().counter("executor.ops"),
            obs::MetricsRegistry::global().counter("executor.steals"),
            obs::MetricsRegistry::global().histogram(
                "executor.execute_ms"),
        };
        return m;
    }
};

const std::vector<uint64_t> *
bgvBinding(const RuntimeInputs &in, int h)
{
    auto it = in.bindings.find(h);
    if (it == in.bindings.end())
        return nullptr;
    const auto *v = std::get_if<std::vector<uint64_t>>(&it->second);
    F1_REQUIRE(v != nullptr,
               "input binding for handle "
                   << h
                   << " holds CKKS slot data, but the executor runs a "
                      "BGV program");
    return v;
}

const std::vector<std::complex<double>> *
ckksBinding(const RuntimeInputs &in, int h)
{
    auto it = in.bindings.find(h);
    if (it == in.bindings.end())
        return nullptr;
    const auto *v =
        std::get_if<std::vector<std::complex<double>>>(&it->second);
    F1_REQUIRE(v != nullptr,
               "input binding for handle "
                   << h
                   << " holds BGV slot data, but the executor runs a "
                      "CKKS program");
    return v;
}

/**
 * Strict total order over ops for scheduling decisions. Without hints
 * every op carries (0, 0), so the order degenerates to ascending
 * handle — the historical deterministic order. With hints, ready ops
 * sort critical-path-first (cycle-scheduler issue cycle), then by the
 * memory scheduler's liveness rank, then by handle.
 */
struct OpPriority
{
    const ScheduleHints *hints = nullptr;

    bool
    before(int a, int b) const
    {
        if (hints != nullptr) {
            const size_t ua = static_cast<size_t>(a);
            const size_t ub = static_cast<size_t>(b);
            if (hints->startCycle[ua] != hints->startCycle[ub])
                return hints->startCycle[ua] < hints->startCycle[ub];
            if (hints->releaseRank[ua] != hints->releaseRank[ub])
                return hints->releaseRank[ua] <
                       hints->releaseRank[ub];
        }
        return a < b;
    }
};

} // namespace

/**
 * Per-run state of one job's traversal: its ciphertexts, plaintexts,
 * outputs, liveness counts, and counters.
 */
struct OpGraphExecutor::RunState
{
    std::vector<std::optional<Ciphertext>> cts;
    std::vector<std::shared_ptr<const std::vector<int64_t>>> bgvPts;
    std::vector<std::vector<std::complex<double>>> ckksSlots;
    std::vector<std::optional<Ciphertext>> outs;
    std::vector<int> uses;   //!< remaining consumers (kSerial)
    size_t resident = 0;     //!< live ciphertexts
    size_t peakResident = 0; //!< high-water mark of resident
    size_t peakOpsInFlight = 0;
    size_t steals = 0;
    // Atomic: CKKS plaintexts are encoded at their consuming op, which
    // work-stealing workers run concurrently.
    std::atomic<uint64_t> encodingCacheHits{0};
    std::atomic<uint64_t> encodingCacheMisses{0};
    EncodingCache *encCache = nullptr;

    /** Correlation id from RuntimeInputs (0 = untraced). */
    uint64_t traceId = 0;

    // Telemetry for this traversal; all nullptr when telemetry is off.
    obs::ProfileCollector *collector = nullptr;
    obs::Tracer *tracer = nullptr;
    const ScheduleHints *hints = nullptr;

    /** Absolute-epoch-relative ns at which the timed execute phase
     *  began (tracer clock) — the origin for the schedule-calibration
     *  measured starts. */
    int64_t executeEpochNs = 0;

    /** The process-wide live-capture ring (obs/tracectx.h); runOp
     *  mirrors spans into it only while a /tracez window is armed. */
    obs::LiveTraceCapture *live = nullptr;

    /** Drops ciphertext h. The caller owns the resident count: the
     *  work-stealing scheduler keeps its own atomic one. */
    void
    release(int h)
    {
        cts[h].reset();
        if (tracer != nullptr)
            tracer->instant(obs::TraceEventKind::kRelease, h,
                            tracer->nowNs());
    }
};

OpGraphExecutor::OpGraphExecutor(const Program &prog, BgvScheme *bgv)
    : prog_(prog), fp_(prog.fingerprint()), bgv_(bgv)
{
    buildGraph();
}

OpGraphExecutor::OpGraphExecutor(const Program &prog, CkksScheme *ckks)
    : prog_(prog), fp_(prog.fingerprint()), ckks_(ckks)
{
    buildGraph();
}

void
OpGraphExecutor::buildGraph()
{
    const auto &ops = prog_.ops();
    const size_t n = ops.size();
    dependents_.assign(n, {});
    indegree_.assign(n, 0);
    consumers_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
        int deps[2];
        ctOperands(ops[i], deps);
        for (int d : deps) {
            if (d < 0)
                continue;
            F1_REQUIRE(static_cast<size_t>(d) < n &&
                           d != static_cast<int>(i),
                       "op " << i << " references invalid handle "
                             << d);
            dependents_[d].push_back(static_cast<int>(i));
            ++indegree_[i];
            ++consumers_[d];
        }
    }

    // Kahn's algorithm with ascending-handle selection. Programs from
    // the builder API are already topologically sorted, so this
    // reproduces program order exactly (kSerial keeps its historical
    // semantics); pushRaw programs with forward references get a
    // valid order; and a cyclic graph is rejected here with the
    // offending handles named, instead of the executor spinning on a
    // never-ready op set.
    topoOrder_.clear();
    topoOrder_.reserve(n);
    std::vector<int> indeg = indegree_;
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    for (size_t i = 0; i < n; ++i)
        if (indeg[i] == 0)
            ready.push(static_cast<int>(i));
    while (!ready.empty()) {
        const int h = ready.top();
        ready.pop();
        topoOrder_.push_back(h);
        for (int dep : dependents_[h])
            if (--indeg[dep] == 0)
                ready.push(dep);
    }
    if (topoOrder_.size() != n) {
        std::ostringstream stuck;
        int listed = 0;
        for (size_t i = 0; i < n; ++i) {
            if (indeg[i] == 0)
                continue;
            if (listed++ > 0)
                stuck << ", ";
            if (listed > 8) {
                stuck << "...";
                break;
            }
            stuck << i;
        }
        F1_REQUIRE(false, "op DAG has a cycle; handles {"
                              << stuck.str()
                              << "} never become ready");
    }
}

void
OpGraphExecutor::prepare(const RuntimeInputs &in, RunState &st) const
{
    const auto &ops = prog_.ops();
    const uint32_t n = prog_.n();

    // Hint warming, in program order. Hint bits are order-independent
    // (hintSeed), so this is a latency optimization, not a correctness
    // requirement: it keeps key generation out of the timed region,
    // matching the old executor's "client-side work excluded" stance.
    for (const HeOp &op : ops) {
        if (op.kind == HeOpKind::kMul) {
            if (bgv_)
                bgv_->relinHintShared(op.level);
            else
                ckks_->relinHintShared(op.level);
        } else if (op.kind == HeOpKind::kRotate ||
                   op.kind == HeOpKind::kConjugate) {
            const auto &order =
                bgv_ ? bgv_->encoder().slotOrder()
                     : ckks_->encoder().slotOrder();
            const uint64_t g =
                op.kind == HeOpKind::kRotate
                    ? order.rotationGalois(op.rotateBy)
                    : order.conjugationGalois();
            if (bgv_)
                bgv_->galoisHintShared(g, op.level);
            else
                ckks_->galoisHintShared(g, op.level);
        }
    }

    // Inputs: encryption and encoding run serially in program order
    // with a per-run Rng, so the prepared state is a pure function of
    // (program, inputs, seed), independent of concurrent jobs.
    Rng rng(in.seed);
    for (size_t i = 0; i < ops.size(); ++i) {
        const HeOp &op = ops[i];
        const int h = static_cast<int>(i);
        if (op.kind == HeOpKind::kInput) {
            if (bgv_) {
                const auto *bound = bgvBinding(in, h);
                std::vector<uint64_t> slots =
                    bound ? *bound
                          : rng.uniformVector(n, bgv_->plainModulus());
                st.cts[h] = bgv_->encryptSlots(slots, op.level, rng);
            } else {
                const auto *bound = ckksBinding(in, h);
                std::vector<std::complex<double>> slots(n / 2);
                if (bound) {
                    slots = *bound;
                } else {
                    for (auto &s : slots)
                        s = {rng.uniformReal(-1, 1), 0.0};
                }
                st.cts[h] = ckks_->encrypt(slots, op.level, rng);
            }
            ++st.resident;
        } else if (op.kind == HeOpKind::kInputPlain) {
            if (bgv_) {
                const auto *bound = bgvBinding(in, h);
                std::vector<uint64_t> slots =
                    bound ? *bound
                          : rng.uniformVector(n, bgv_->plainModulus());
                st.bgvPts[h] = encodeBgvPlain(slots, st);
            } else {
                const auto *bound = ckksBinding(in, h);
                std::vector<std::complex<double>> slots(n / 2);
                if (bound) {
                    slots = *bound;
                } else {
                    for (auto &s : slots)
                        s = {rng.uniformReal(-1, 1), 0.0};
                }
                // Raw slots; encoded (and cached) lazily at the
                // consuming op, where scale and level are known.
                st.ckksSlots[h] = std::move(slots);
            }
        }
    }
    st.peakResident = st.resident;
}

std::shared_ptr<const std::vector<int64_t>>
OpGraphExecutor::encodeBgvPlain(std::span<const uint64_t> slots,
                                RunState &st) const
{
    if (!st.encCache) {
        return std::make_shared<const std::vector<int64_t>>(
            bgv_->encoder().encodeSlots(slots));
    }
    EncodingKey key;
    key.paramsFp =
        hashCombine(hashCombine(hashMix(0xe4c0de), prog_.n()),
                    bgv_->plainModulus());
    key.dataHash = hashU64Span(slots);
    const auto alias = [](std::shared_ptr<const EncodedPlaintext> p) {
        const auto *v = std::get_if<std::vector<int64_t>>(p.get());
        F1_CHECK(v != nullptr,
                 "encoding-cache entry holds a CKKS value under a BGV "
                 "key");
        return std::shared_ptr<const std::vector<int64_t>>(
            std::move(p), v);
    };
    if (auto hit = st.encCache->get(key)) {
        st.encodingCacheHits.fetch_add(1, std::memory_order_relaxed);
        return alias(std::move(hit));
    }
    st.encodingCacheMisses.fetch_add(1, std::memory_order_relaxed);
    // A concurrent job may race the same miss; put() keeps the first
    // value, and both values are identical (encoding is pure).
    return alias(st.encCache->put(
        key, EncodedPlaintext(bgv_->encoder().encodeSlots(slots))));
}

/**
 * CKKS counterpart of encodeBgvPlain: plaintext slots are encoded to
 * an RnsPoly at the consuming ciphertext's (scale, level), and the
 * result is content-addressed in the shared cache — repeated model
 * weights across jobs encode once. Determinism:
 * encoding is a pure function of (slots, scale, level), so cached and
 * fresh encodings are bit-identical.
 */
std::shared_ptr<const RnsPoly>
OpGraphExecutor::encodeCkksPlain(
    std::span<const std::complex<double>> slots, double scale,
    size_t level, RunState &st) const
{
    if (!st.encCache) {
        return std::make_shared<const RnsPoly>(
            ckks_->encoder().encode(slots, scale, level));
    }
    EncodingKey key;
    key.paramsFp = hashCombine(hashMix(0xc4c5de), prog_.n());
    uint64_t dh = hashMix(slots.size());
    for (const std::complex<double> &s : slots) {
        dh = hashCombine(dh, std::bit_cast<uint64_t>(s.real()));
        dh = hashCombine(dh, std::bit_cast<uint64_t>(s.imag()));
    }
    key.dataHash = dh;
    key.shapeFp =
        hashCombine(hashCombine(hashMix(0x5ca1e),
                                std::bit_cast<uint64_t>(scale)),
                    level);
    const auto alias = [](std::shared_ptr<const EncodedPlaintext> p) {
        const auto *v = std::get_if<RnsPoly>(p.get());
        F1_CHECK(v != nullptr,
                 "encoding-cache entry holds a BGV value under a CKKS "
                 "key");
        return std::shared_ptr<const RnsPoly>(std::move(p), v);
    };
    if (auto hit = st.encCache->get(key)) {
        st.encodingCacheHits.fetch_add(1, std::memory_order_relaxed);
        return alias(std::move(hit));
    }
    st.encodingCacheMisses.fetch_add(1, std::memory_order_relaxed);
    return alias(st.encCache->put(
        key,
        EncodedPlaintext(ckks_->encoder().encode(slots, scale,
                                                 level))));
}

void
OpGraphExecutor::executeOp(int h, RunState &st) const
{
    const HeOp &op = prog_.ops()[h];
    auto ct = [&](int idx) -> const Ciphertext & {
        F1_CHECK(st.cts[idx].has_value(),
                 "operand " << idx << " not resident for op " << h);
        return *st.cts[idx];
    };
    switch (op.kind) {
      case HeOpKind::kInput:
      case HeOpKind::kInputPlain:
        break; // materialized by prepare()
      case HeOpKind::kAdd:
        st.cts[h] = bgv_ ? bgv_->add(ct(op.a), ct(op.b))
                        : ckks_->add(ct(op.a), ct(op.b));
        break;
      case HeOpKind::kSub:
        st.cts[h] = bgv_ ? bgv_->sub(ct(op.a), ct(op.b))
                        : ckks_->sub(ct(op.a), ct(op.b));
        break;
      case HeOpKind::kAddPlain:
        if (bgv_) {
            st.cts[h] = bgv_->addPlain(ct(op.a), *st.bgvPts[op.b]);
        } else {
            const Ciphertext &a = ct(op.a);
            auto pt = encodeCkksPlain(st.ckksSlots[op.b], a.scale,
                                      a.level(), st);
            st.cts[h] = ckks_->addPlainEncoded(a, *pt);
        }
        break;
      case HeOpKind::kMulPlain:
        if (bgv_) {
            st.cts[h] = bgv_->mulPlain(ct(op.a), *st.bgvPts[op.b]);
        } else {
            const Ciphertext &a = ct(op.a);
            auto pt = encodeCkksPlain(st.ckksSlots[op.b],
                                      ckks_->defaultScale(),
                                      a.level(), st);
            st.cts[h] = ckks_->mulPlainEncoded(a, *pt);
        }
        break;
      case HeOpKind::kMul:
        st.cts[h] = bgv_ ? bgv_->mul(ct(op.a), ct(op.b))
                        : ckks_->mul(ct(op.a), ct(op.b));
        break;
      case HeOpKind::kRotate:
        st.cts[h] = bgv_ ? bgv_->rotate(ct(op.a), op.rotateBy)
                        : ckks_->rotate(ct(op.a), op.rotateBy);
        break;
      case HeOpKind::kConjugate:
        st.cts[h] = bgv_ ? bgv_->conjugate(ct(op.a))
                        : ckks_->conjugate(ct(op.a));
        break;
      case HeOpKind::kModSwitch:
        st.cts[h] = bgv_ ? bgv_->modSwitch(ct(op.a))
                        : ckks_->rescale(ct(op.a));
        break;
      case HeOpKind::kOutput:
        st.outs[h] = ct(op.a);
        break;
    }
}

/**
 * executeOp plus this run's telemetry. The telemetry-off path is one
 * null check, one relaxed atomic load (the /tracez live-capture arm
 * check), and a tail call — no clock reads, which is what keeps
 * disabled runs inside the <1% overhead budget.
 */
void
OpGraphExecutor::runOp(int h, RunState &st) const
{
    const bool live = st.live != nullptr && st.live->armed();
    if (st.collector == nullptr && st.tracer == nullptr && !live) {
        executeOp(h, st);
        return;
    }
    const HeOp &op = prog_.ops()[h];
    const int64_t predicted =
        st.hints != nullptr ? int64_t(st.hints->startCycle[size_t(h)])
                            : -1;
    if (st.tracer != nullptr) {
        // Tracer timestamps are steady-clock ns past the tracer's
        // epoch, so the span pair doubles as the op duration.
        const int64_t t0 = st.tracer->nowNs();
        executeOp(h, st);
        const int64_t ns = st.tracer->nowNs() - t0;
        if (st.collector != nullptr)
            st.collector->addOp(size_t(op.kind), uint64_t(ns));
        st.tracer->span(opKindName(op.kind), h, t0, ns, predicted,
                        st.traceId);
        // Calibration pairs the compiler's predicted start cycle with
        // the measured start relative to the traversal's own start.
        if (predicted >= 0)
            obs::ScheduleCalibration::global().record(
                size_t(op.kind), opKindName(op.kind),
                uint64_t(predicted), t0 - st.executeEpochNs);
        if (live)
            st.live->record(st.tracer->epochNs() + t0, ns,
                            opKindName(op.kind), h, st.traceId,
                            predicted);
        return;
    }
    const int64_t a0 = obs::steadyNowNs();
    executeOp(h, st);
    const int64_t ns = obs::steadyNowNs() - a0;
    if (st.collector != nullptr)
        st.collector->addOp(size_t(op.kind), uint64_t(ns));
    if (live)
        st.live->record(a0, ns, opKindName(op.kind), h, st.traceId,
                        predicted);
}

/**
 * Runs every op in topological order on the calling thread. After
 * each op, operands it consumed for the last time are released, and a
 * result nothing consumes (dead code) is dropped at once.
 */
void
OpGraphExecutor::runSerial(RunState &st) const
{
    const auto &ops = prog_.ops();
    for (int h : topoOrder_) {
        const HeOp &op = ops[h];
        if (isSource(op))
            continue;
        runOp(h, st);
        st.peakOpsInFlight = 1;
        if (producesCiphertext(op))
            ++st.resident;
        st.peakResident = std::max(st.peakResident, st.resident);
        int deps[2];
        ctOperands(op, deps);
        for (int d : deps) {
            if (d >= 0 && --st.uses[d] == 0) {
                st.release(d);
                --st.resident;
            }
        }
        if (producesCiphertext(op) && st.uses[h] == 0) {
            st.release(h);
            --st.resident;
        }
    }
}

/**
 * Continuation scheduling: W workers each own a priority deque of
 * ready ops. Completing op `h` atomically decrements its consumers'
 * dependency counts; a consumer reaching zero is pushed onto the
 * completing worker's deque (the continuation stays local). A worker
 * whose deque is empty steals the most urgent op from another deque.
 * No round barrier exists, so an expensive op never stalls
 * independent work that becomes ready while it runs.
 *
 * Synchronization: all deque traffic goes through per-deque mutexes;
 * dependency counts are acq_rel atomics, so a consumer popped from
 * any deque observes every producer's ciphertext write. Consumer
 * counts are acq_rel atomics too: the thread whose decrement reaches
 * zero is the only one to release the ciphertext, and every reader
 * has already finished (it decrements only after executing).
 */
void
OpGraphExecutor::runWorkStealing(RunState &st,
                                 const ExecutionPolicy &policy) const
{
    const auto &ops = prog_.ops();
    const size_t n = ops.size();
    const OpPriority prio{policy.scheduleHints};
    // Min-heap on OpPriority: heapCmp is "worse-than".
    const auto heapCmp = [&](int a, int b) {
        return prio.before(b, a);
    };

    unsigned workers = globalThreadCount();
    if (policy.threadBudget != 0)
        workers = std::min(workers, policy.threadBudget);
    workers = std::max(workers, 1u);
    const size_t W = workers;

    struct WorkerDeque
    {
        std::mutex m;
        std::vector<int> heap; //!< ready ops, min-heap by priority
    };
    std::unique_ptr<WorkerDeque[]> deques(new WorkerDeque[W]);

    std::vector<std::atomic<int>> indeg(n);
    std::vector<std::atomic<int>> uses(n);
    for (size_t i = 0; i < n; ++i) {
        indeg[i].store(indegree_[i], std::memory_order_relaxed);
        uses[i].store(consumers_[i], std::memory_order_relaxed);
    }

    size_t totalWork = 0;
    for (const HeOp &op : ops)
        if (!isSource(op))
            ++totalWork;
    std::atomic<size_t> remaining{totalWork};
    std::atomic<size_t> resident{st.resident};
    std::atomic<size_t> peakResident{st.peakResident};
    std::atomic<size_t> steals{0};
    std::atomic<size_t> running{0};
    std::atomic<size_t> peakRunning{0};
    std::atomic<bool> abort{false};
    std::mutex errMutex;
    std::exception_ptr firstError;

    // Seed: propagate input completions, then deal the initial ready
    // set round-robin across the deques in priority order so workers
    // start loaded without stealing.
    std::vector<int> ready0;
    for (size_t i = 0; i < n; ++i) {
        if (!isSource(ops[i]))
            continue;
        for (int dep : dependents_[i]) {
            if (indeg[dep].fetch_sub(1, std::memory_order_relaxed) ==
                1)
                ready0.push_back(dep);
        }
    }
    std::sort(ready0.begin(), ready0.end(),
              [&](int a, int b) { return prio.before(a, b); });
    for (size_t k = 0; k < ready0.size(); ++k)
        deques[k % W].heap.push_back(ready0[k]);
    for (size_t w = 0; w < W; ++w)
        std::make_heap(deques[w].heap.begin(), deques[w].heap.end(),
                       heapCmp);

    auto popFrom = [&](WorkerDeque &dq) -> int {
        std::lock_guard<std::mutex> lock(dq.m);
        if (dq.heap.empty())
            return -1;
        std::pop_heap(dq.heap.begin(), dq.heap.end(), heapCmp);
        const int h = dq.heap.back();
        dq.heap.pop_back();
        return h;
    };
    auto pushTo = [&](WorkerDeque &dq, int h) {
        std::lock_guard<std::mutex> lock(dq.m);
        dq.heap.push_back(h);
        std::push_heap(dq.heap.begin(), dq.heap.end(), heapCmp);
    };

    auto releaseCt = [&](int h) {
        st.release(h);
        resident.fetch_sub(1, std::memory_order_relaxed);
    };

    auto runOne = [&](size_t wid, int h) {
        const size_t now =
            running.fetch_add(1, std::memory_order_relaxed) + 1;
        size_t wide = peakRunning.load(std::memory_order_relaxed);
        while (now > wide &&
               !peakRunning.compare_exchange_weak(
                   wide, now, std::memory_order_relaxed)) {
        }
        runOp(h, st);
        running.fetch_sub(1, std::memory_order_relaxed);
        if (producesCiphertext(ops[h])) {
            const size_t cur =
                resident.fetch_add(1, std::memory_order_relaxed) + 1;
            size_t peak =
                peakResident.load(std::memory_order_relaxed);
            while (cur > peak &&
                   !peakResident.compare_exchange_weak(
                       peak, cur, std::memory_order_relaxed)) {
            }
            // Dead code: a result nothing consumes is dropped now.
            if (uses[h].load(std::memory_order_acquire) == 0)
                releaseCt(h);
        }
        // Unlock dependents; newly-ready continuations stay local.
        for (int dep : dependents_[h]) {
            if (indeg[dep].fetch_sub(1,
                                     std::memory_order_acq_rel) == 1)
                pushTo(deques[wid], dep);
        }
        // Release operands this op consumed for the last time.
        int deps[2];
        ctOperands(ops[h], deps);
        for (int d : deps) {
            if (d >= 0 &&
                uses[d].fetch_sub(1, std::memory_order_acq_rel) == 1)
                releaseCt(d);
        }
        remaining.fetch_sub(1, std::memory_order_release);
    };

    auto worker = [&](size_t wid) {
        try {
            for (;;) {
                if (abort.load(std::memory_order_relaxed))
                    return;
                int h = popFrom(deques[wid]);
                if (h < 0) {
                    for (size_t k = 1; k < W && h < 0; ++k)
                        h = popFrom(deques[(wid + k) % W]);
                    if (h >= 0) {
                        steals.fetch_add(1,
                                         std::memory_order_relaxed);
                        if (st.tracer != nullptr)
                            st.tracer->instant(
                                obs::TraceEventKind::kSteal, h,
                                st.tracer->nowNs());
                    }
                }
                if (h < 0) {
                    if (remaining.load(std::memory_order_acquire) ==
                        0)
                        return;
                    std::this_thread::yield();
                    continue;
                }
                runOne(wid, h);
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            // Unblock the other workers: they must not spin on a
            // remaining count that will never reach zero.
            abort.store(true, std::memory_order_relaxed);
        }
    };

    // One pool dispatch for the whole run: each claimed index is a
    // long-lived worker loop. Under InlineParallelScope (or a
    // one-thread pool) the bodies run inline in index order — worker
    // 0 drains the whole graph in strict priority order, the rest
    // find no work — so the serial fallback is exact and
    // deterministic.
    parallelFor(0, W, worker);
    if (firstError)
        std::rethrow_exception(firstError);

    st.resident = resident.load(std::memory_order_relaxed);
    st.peakResident = peakResident.load(std::memory_order_relaxed);
    st.steals = steals.load(std::memory_order_relaxed);
    st.peakOpsInFlight = peakRunning.load(std::memory_order_relaxed);
}

ExecutionResult
OpGraphExecutor::execute(const RuntimeInputs &in,
                         const ExecutionPolicy &policy) const
{
    const auto &ops = prog_.ops();
    const size_t n = ops.size();
    if (policy.scheduleHints != nullptr) {
        F1_REQUIRE(policy.scheduleHints->size() == n,
                   "schedule hints describe "
                       << policy.scheduleHints->size()
                       << " ops but the program has " << n);
    }

    RunState st;
    st.cts.resize(n);
    st.outs.resize(n);
    st.bgvPts.resize(n);
    st.ckksSlots.resize(n);
    st.uses = consumers_;
    st.traceId = in.traceId;
    st.encCache = policy.encodingCache;
    st.hints = policy.scheduleHints;
    st.live = &obs::LiveTraceCapture::global();

    // Telemetry collectors live on the stack for exactly this run.
    // The ProfileScope around each phase makes pool batches dispatched
    // from it inherit the collector (see ThreadPool::run), so nested
    // limb-parallel work is attributed to this run — and a run WITHOUT
    // a collector shadows any outer one instead of polluting it.
    std::unique_ptr<obs::ProfileCollector> collector;
    std::unique_ptr<obs::Tracer> tracer;
    if (policy.telemetry.profile)
        collector = std::make_unique<obs::ProfileCollector>();
    if (policy.telemetry.trace)
        tracer = std::make_unique<obs::Tracer>(
            policy.telemetry.traceLaneCapacity,
            policy.telemetry.label);
    st.collector = collector.get();
    st.tracer = tracer.get();

    size_t totalWork = 0;
    for (const HeOp &op : ops)
        if (!isSource(op))
            ++totalWork;

    // Flight-recorder hooks: one dispatch event per traversal (jobId
    // 0 — the executor doesn't know serving job ids; the engine's
    // per-job admit/complete events bracket this one by fingerprint)
    // and one fail event when the traversal throws, so a post-mortem
    // shows WHERE in the pipeline a job died.
    obs::FlightRecorder &rec = obs::FlightRecorder::global();
    rec.record(obs::ServingEventKind::kDispatch, 0,
               policy.telemetry.label, fp_, 1, in.traceId);

    const double p0 = steadyNowMs();
    double prepareMs = 0;
    double wallMs = 0;
    try {
        {
            obs::ProfileScope profScope(st.collector);
            prepare(in, st);
        }
        prepareMs = steadyNowMs() - p0;

        const double t0 = steadyNowMs();
        {
            obs::ProfileScope profScope(st.collector);
            // The calibration origin: measured op starts are relative
            // to the moment the traversal begins (tracer clock).
            st.executeEpochNs = st.tracer ? st.tracer->nowNs() : 0;
            if (policy.scheduler == SchedulerKind::kSerial)
                runSerial(st);
            else
                runWorkStealing(st, policy);
        }
        wallMs = steadyNowMs() - t0;
    } catch (...) {
        rec.record(obs::ServingEventKind::kFail, 0,
                   policy.telemetry.label, fp_, 1, in.traceId);
        throw;
    }

    ExecutionResult r;
    r.wallMs = wallMs;
    r.opsExecuted = totalWork;
    r.peakResidentCiphertexts = st.peakResident;
    r.peakOpsInFlight = st.peakOpsInFlight;
    r.steals = st.steals;
    r.encodingCacheHits = st.encodingCacheHits.load();
    r.encodingCacheMisses = st.encodingCacheMisses.load();
    for (size_t i = 0; i < n; ++i) {
        if (ops[i].kind == HeOpKind::kOutput)
            r.outputs[static_cast<int>(i)] = std::move(*st.outs[i]);
    }

    if (collector) {
        auto prof = std::make_shared<obs::ExecutionProfile>();
        prof->label = policy.telemetry.label;
        for (size_t k = 0; k < kOpKindCount; ++k) {
            const uint64_t c = collector->opCount[k].load(
                std::memory_order_relaxed);
            if (c == 0)
                continue;
            auto &slice = prof->opKinds[kOpKindNames[k]];
            slice.count = c;
            slice.totalMs = double(collector->opNanos[k].load(
                                std::memory_order_relaxed)) /
                            1e6;
        }
        const auto counter = [&](obs::ProfileCounter c) {
            return collector->counters[size_t(c)].load(
                std::memory_order_relaxed);
        };
        prof->nttForward = counter(obs::ProfileCounter::kNttForward);
        prof->nttInverse = counter(obs::ProfileCounter::kNttInverse);
        prof->keySwitchApplies =
            counter(obs::ProfileCounter::kKeySwitchApply);
        prof->basisExtends =
            counter(obs::ProfileCounter::kBasisExtend);
        prof->cacheHits = counter(obs::ProfileCounter::kCacheHit);
        prof->cacheMisses = counter(obs::ProfileCounter::kCacheMiss);
        prof->encodingCacheHits = r.encodingCacheHits;
        prof->encodingCacheMisses = r.encodingCacheMisses;
        prof->scratchPeakWords = collector->scratchPeakWords.load(
            std::memory_order_relaxed);
        prof->prepareMs = prepareMs;
        prof->executeMs = wallMs;
        prof->traceId = in.traceId;
        r.profile = std::move(prof);
    }
    if (tracer)
        r.trace = std::make_shared<const obs::Trace>(tracer->finish());

    // Registry fold: cheap per-RUN (not per-op) aggregate metrics,
    // always on — this is the "one snapshot" the bespoke stats structs
    // used to scatter.
    ExecutorMetrics &em = ExecutorMetrics::get();
    em.runs.inc();
    em.ops.inc(totalWork);
    em.steals.inc(st.steals);
    em.executeMs.observe(wallMs);

    return r;
}

} // namespace f1
