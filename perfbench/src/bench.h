/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line arguments,
 * the metric report, order statistics, the span recorder used by the
 * traced run, registry reads, and the program walker that both the
 * plaintext oracle and the per-op replay are built on.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <complex>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/program.h"
#include "obs/metrics.h"
#include "runtime/op_graph_executor.h"

namespace perfbench {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string traceFile; //!< Chrome-trace output of the traced run
};

/** Named metrics with units, printed as text and as the JSON line. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    void note(const std::string &line) { notes_.push_back(line); }
    void fail(const std::string &why);

    bool correct() const { return failures_.empty(); }
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Human-readable lines, then the one-line JSON result. */
    void print() const;

  private:
    struct Metric
    {
        std::string name, unit;
        double value;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
};

inline double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v);

/** The highest order statistic with at least ten samples above it:
 *  the 11th largest of n >= 11 samples. `pct` gets its percentile
 *  rank, which depends on n alone. */
double tailWithTenBeyond(std::vector<double> v, double *pct);

/** Process high-water resident set, MB (10^6 bytes). */
double peakRssMb();

/** Counter (or summed gauge) from a registry snapshot; 0 if absent. */
uint64_t counterOf(const f1::obs::MetricsSnapshot &s,
                   const std::string &name);

/** splitmix64: derives independent seeds from (seed, index). */
uint64_t mixSeed(uint64_t seed, uint64_t index);

//
// Spans of the traced run. The benchmark records them around its own
// calls into each module; they stay in memory and are written as one
// Chrome-trace document at exit.
//

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0, endNs = 0;
        int parent = -1;
        uint64_t job = 0;
        uint32_t tid = 0;
    };

    /** Opens a span and returns its id; -1 when recording is off. */
    int open(const std::string &name, int parent = -1,
             uint64_t job = 0);
    void close(int id);

    bool enabled = false;

    /** Per-name total and self time (duration minus the part its
     *  children cover), milliseconds, and span counts. */
    struct LayerTime
    {
        double totalMs = 0, selfMs = 0;
        size_t count = 0;
    };
    std::map<std::string, LayerTime> layerTimes() const;

    void writeChromeTrace(const std::string &path) const;
    size_t size() const { return spans_.size(); }

  private:
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

SpanRecorder &spans();

/** RAII span on the global recorder. */
class SpanScope
{
  public:
    explicit SpanScope(const std::string &name, int parent = -1,
                       uint64_t job = 0)
        : id_(spans().open(name, parent, job))
    {
    }
    ~SpanScope() { spans().close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
    int id() const { return id_; }

  private:
    int id_;
};

//
// Program walker: visits Program::ops() in program order, keeping one
// value per ciphertext handle and one per plaintext handle. The
// plaintext oracle and the timed per-op replay are both visitors of
// this walk, so they evaluate exactly the same op sequence.
//
// A visitor provides types Ct and Pt and:
//   Ct input(int h, const HeOp &op);
//   Pt plain(int h, const HeOp &op);
//   Ct apply(int h, const HeOp &op, const Ct &a, const Ct *b,
//            const Pt *pt);
//

template <typename V>
std::map<int, typename V::Ct>
walkProgram(const f1::Program &prog, V &v)
{
    using f1::HeOpKind;
    const auto &ops = prog.ops();
    std::vector<std::optional<typename V::Ct>> cts(ops.size());
    std::vector<std::optional<typename V::Pt>> pts(ops.size());
    std::map<int, typename V::Ct> outs;
    // Ciphertexts are released after their last use, as the executor
    // does, so the replay's working set matches an execution's.
    std::vector<int> uses(ops.size(), 0);
    for (const f1::HeOp &op : ops) {
        if (op.a >= 0)
            ++uses[size_t(op.a)];
        if (op.b >= 0)
            ++uses[size_t(op.b)];
    }
    auto used = [&](int h) {
        if (h >= 0 && --uses[size_t(h)] == 0) {
            cts[size_t(h)].reset();
            pts[size_t(h)].reset();
        }
    };
    for (size_t i = 0; i < ops.size(); ++i) {
        const f1::HeOp &op = ops[i];
        const int h = static_cast<int>(i);
        switch (op.kind) {
          case HeOpKind::kInput:
            cts[h] = v.input(h, op);
            break;
          case HeOpKind::kInputPlain:
            pts[h] = v.plain(h, op);
            break;
          case HeOpKind::kOutput:
            outs.emplace(h, *cts[op.a]);
            break;
          case HeOpKind::kAdd:
          case HeOpKind::kSub:
          case HeOpKind::kMul:
            cts[h] = v.apply(h, op, *cts[op.a], &*cts[op.b], nullptr);
            break;
          case HeOpKind::kAddPlain:
          case HeOpKind::kMulPlain:
            cts[h] = v.apply(h, op, *cts[op.a], nullptr, &*pts[op.b]);
            break;
          case HeOpKind::kRotate:
          case HeOpKind::kConjugate:
          case HeOpKind::kModSwitch:
            cts[h] = v.apply(h, op, *cts[op.a], nullptr, nullptr);
            break;
        }
        used(op.a);
        used(op.b);
    }
    return outs;
}

const char *opKindName(f1::HeOpKind k);

//
// Plaintext oracle: evaluates a program on slot values. BGV slots are
// exact mod t, two rows of n/2 that rotate independently (left by r,
// as tests/test_fhe_bgv.cpp defines it); conjugation swaps the rows.
// CKKS slots are n/2 complex values; rotation is cyclic left by r and
// conjugation is complex conjugation. Modulus switching / rescaling
// leaves the encoded values unchanged.
//

std::map<int, std::vector<uint64_t>>
oracleBgv(const f1::Program &prog, const f1::RuntimeInputs &in,
          uint64_t t);

std::map<int, std::vector<std::complex<double>>>
oracleCkks(const f1::Program &prog, const f1::RuntimeInputs &in);

//
// The F1 model of a set of programs (compiler + cycle scheduler): the
// end-to-end model counts and the compiler/sim per-layer panel.
//

struct ModelSummary
{
    double gmeanMs = 0; //!< gmean of modelled ms over the programs
    double hbmMb = 0;   //!< total modelled off-chip traffic, MB
    uint64_t digest = 0; //!< hash of every count, to compare runs
};

/** Exact model counts of one compile, for cross-run comparison. */
struct ModelCounts
{
    uint64_t cycles = 0;
    f1::TrafficBytes traffic;
    bool operator==(const ModelCounts &o) const;
};

ModelCounts countsOf(const f1::CompileResult &r);
ModelSummary summarize(const std::vector<ModelCounts> &counts,
                       const f1::F1Config &cfg);

/** A workload program with the paper's Table 3 F1 time, which is
 *  comparable only for programs built at the paper's scale. */
struct NamedProgram
{
    const f1::Program *program;
    const char *paperF1Ms; //!< "-" when the paper has no figure
    bool scaled;
};

/** Adds compiler.* and sim.* per-layer metrics for `programs`,
 *  recording spans around each compiler phase. `cpuMs` (one per
 *  program; empty if the workload runs no FHE) feeds
 *  sim.cpu_over_f1. */
void reportCompilerLayers(Report &rep,
                          const std::vector<NamedProgram> &programs,
                          const std::vector<double> &cpuMs, int reps);

/** Adds fhe.*, poly.* and modular.* per-layer metrics measured on
 *  the given scheme (exactly one non-null) at `level`. */
void reportKernelLayers(Report &rep, f1::BgvScheme *bgv,
                        f1::CkksScheme *ckks, size_t level);

/** The three workloads; each fills `rep` with the end-to-end metrics
 *  (or, when a.trace, the per-layer metrics). */
void runServeBgv(const Args &a, Report &rep);
void runInferCkks(const Args &a, Report &rep);
void runCompileSuite(const Args &a, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
