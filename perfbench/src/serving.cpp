/**
 * @file
 * The two serving workloads. Both drive a ServingEngine from one
 * closed-loop generator thread with a fixed window of outstanding
 * jobs, bind every input from the run seed, and check every job's
 * decrypted outputs against the plaintext oracle between rounds,
 * outside the timed window.
 *
 *  - serve-bgv: BGV n=1024, L=3, two benchmark-owned shapes in a 3:1
 *    mix from two tenants, window 16, nproc-1 throughput-mode
 *    workers. Kernels are cheap, so admission, coalescing, queueing,
 *    executor bookkeeping and the encoding cache dominate.
 *  - infer-ckks: LoLa-MNIST with unencrypted weights (CKKS, n=8192),
 *    one job outstanding, one latency-mode worker over the nproc
 *    thread pool. NTT, key switching and rescaling dominate; the
 *    serving layers sit idle.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "fhe/bgv.h"
#include "fhe/ckks.h"
#include "runtime/serving.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

struct ServeSpec
{
    std::string name;
    bool ckks = false;
    f1::FheParams params;
    std::vector<f1::Program> programs;
    std::vector<const char *> paperF1Ms; //!< per program, "-" if none
    std::vector<int> mixCycle; //!< program of job j: mixCycle[j % size]
    unsigned tenants = 1;
    unsigned workers = 1;
    bool inlineIntraOp = true;
    unsigned window = 1;
    size_t jobsPerRound = 0;
    size_t rounds = 0;
    bool pooledTail = false; //!< tail over all jobs, not per round
    int setups = 3;
    int probeReps = 3;     //!< executor/replay repetitions per program
    double ckksTol = 0;    //!< absolute slot tolerance vs the oracle
};

/** Share of the job mix that runs program `p`. */
double
shareOf(const ServeSpec &s, size_t p)
{
    return double(std::count(s.mixCycle.begin(), s.mixCycle.end(), int(p))) /
           double(s.mixCycle.size());
}

unsigned
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ServeSpec
serveBgvSpec(int seconds)
{
    ServeSpec s;
    s.name = "serve-bgv";
    s.params.n = 1024;
    s.params.maxLevel = 3;
    s.params.primeBits = 28;
    s.params.plainModulus = 65537;

    // Shape 0: mul_plain with shared weights, then two rotate-and-add
    // steps. Shape 1: an add chain ending in a modulus switch.
    f1::Program dot(1024, 3, "bgv-dot");
    int y = dot.mulPlain(dot.input(), dot.inputPlain());
    y = dot.add(y, dot.rotate(y, 1));
    y = dot.add(y, dot.rotate(y, 2));
    dot.output(y);
    f1::Program chain(1024, 3, "bgv-chain");
    const int a = chain.input(), b = chain.input(), c = chain.input();
    int acc = chain.add(a, b);
    acc = chain.add(acc, c);
    acc = chain.sub(acc, a);
    acc = chain.add(acc, chain.add(b, c));
    chain.output(chain.modSwitch(acc));
    s.programs.push_back(std::move(dot));
    s.programs.push_back(std::move(chain));
    s.paperF1Ms = {"-", "-"};
    s.mixCycle = {0, 0, 0, 1};
    s.tenants = 2;
    s.workers = std::max(1u, nproc() - 1);
    s.inlineIntraOp = true;
    s.window = 16;
    s.jobsPerRound = 500;
    s.rounds = size_t(std::max(1, 3 * seconds));
    s.setups = 15;
    s.probeReps = 31;
    return s;
}

ServeSpec
inferCkksSpec(int seconds)
{
    ServeSpec s;
    s.name = "infer-ckks";
    s.ckks = true;
    f1::Workload w = f1::makeLolaMnist(false);
    s.params.n = w.n;
    s.params.maxLevel = w.maxLevel;
    s.params.auxCount = w.auxCount;
    s.params.primeBits = 28;
    s.paperF1Ms = {w.paperF1Ms};
    s.programs.push_back(std::move(w.program));
    s.mixCycle = {0};
    s.tenants = 1;
    s.workers = 1;
    s.inlineIntraOp = false;
    s.window = 1;
    s.jobsPerRound = 10;
    s.rounds = size_t(std::max(1, 3 * seconds / 5));
    s.pooledTail = true;
    s.setups = 5;
    s.probeReps = 3;
    s.ckksTol = 2e-3;
    return s;
}

/** Shared plaintext operands (model weights) per (program, tenant),
 *  and per-job encrypted inputs, all derived from the run seed. */
class Inputs
{
  public:
    Inputs(const ServeSpec &spec, uint64_t seed) : spec_(spec), seed_(seed)
    {
        weights_.resize(spec.programs.size());
        for (size_t p = 0; p < spec.programs.size(); ++p) {
            for (unsigned t = 0; t < spec.tenants; ++t) {
                f1::Rng rng(mixSeed(seed, 1000 + p * 16 + t));
                std::map<int, f1::InputBinding> w;
                const f1::Program &prog = spec.programs[p];
                for (size_t h = 0; h < prog.ops().size(); ++h) {
                    const f1::HeOp &op = prog.ops()[h];
                    if (op.kind != f1::HeOpKind::kInputPlain)
                        continue;
                    // LoLa's first-layer weights enter at the program
                    // level, the second layer's two levels below. The
                    // amplitudes keep hidden units O(1) and outputs
                    // below ~1, so the low-level output keeps the
                    // precision the oracle's tolerance assumes.
                    const double amp =
                        op.level == prog.startLevel() ? 1.0 / 32 : 0.25;
                    w[int(h)] = slots(rng, amp);
                }
                weights_[p].push_back(std::move(w));
            }
        }
    }

    int programOf(size_t job) const
    {
        return spec_.mixCycle[job % spec_.mixCycle.size()];
    }
    unsigned tenantOf(size_t job) const
    {
        return unsigned((job / spec_.mixCycle.size()) % spec_.tenants);
    }

    f1::RuntimeInputs
    make(size_t job) const
    {
        return make(job, programOf(job), tenantOf(job));
    }

    f1::RuntimeInputs
    make(size_t job, int p, unsigned tenant) const
    {
        f1::RuntimeInputs in;
        in.seed = mixSeed(seed_, job);
        f1::Rng rng(mixSeed(seed_ ^ 0x5107ULL, job));
        const f1::Program &prog = spec_.programs[size_t(p)];
        const auto &w = weights_[size_t(p)][tenant];
        for (size_t h = 0; h < prog.ops().size(); ++h) {
            const f1::HeOpKind k = prog.ops()[h].kind;
            if (k == f1::HeOpKind::kInput)
                in.bindings[int(h)] = slots(rng, 1.0);
            else if (k == f1::HeOpKind::kInputPlain)
                in.bindings[int(h)] = w.at(int(h));
        }
        return in;
    }

  private:
    f1::InputBinding
    slots(f1::Rng &rng, double amp) const
    {
        const uint32_t n = spec_.params.n;
        if (!spec_.ckks)
            return rng.uniformVector(n, spec_.params.plainModulus);
        std::vector<std::complex<double>> v(n / 2);
        for (auto &x : v)
            x = {amp * rng.uniformReal(-1, 1), 0.0};
        return v;
    }

    const ServeSpec &spec_;
    uint64_t seed_;
    std::vector<std::vector<std::map<int, f1::InputBinding>>> weights_;
};

/** One set-up: context, keys, compiled hints, engine, warm caches.
 *  The engine is declared last so it drains before the rest dies. */
struct Instance
{
    std::unique_ptr<f1::FheContext> ctx;
    std::unique_ptr<f1::BgvScheme> bgv;
    std::unique_ptr<f1::CkksScheme> ckks;
    std::vector<f1::CompileResult> compiled;
    std::unique_ptr<f1::ServingEngine> engine;

    /** Tears down in dependency order (engine before schemes). */
    void
    reset()
    {
        engine.reset();
        compiled.clear();
        ckks.reset();
        bgv.reset();
        ctx.reset();
    }
};

/**
 * Timed per-op replay: a walkProgram visitor that calls the scheme
 * once per op, single-threaded, and charges the time to the op's
 * kind. Inputs arrive pre-encrypted and plaintexts pre-encoded, as
 * they are after prepare() with a warm encoding cache.
 */
struct Replay
{
    using Ct = f1::Ciphertext;
    using Pt = std::vector<std::complex<double>>; // CKKS slots
    f1::BgvScheme *bgv;
    f1::CkksScheme *ckks;
    const std::map<int, f1::Ciphertext> &enc;
    const std::map<int, std::vector<int64_t>> &bgvPts;
    const f1::RuntimeInputs &in;
    std::map<f1::HeOpKind, double> kindMs;
    int parent = -1;

    Ct input(int h, const f1::HeOp &) { return enc.at(h); }
    Pt
    plain(int h, const f1::HeOp &)
    {
        if (bgv)
            return {};
        return std::get<Pt>(in.bindings.at(h));
    }

    Ct
    apply(int h, const f1::HeOp &op, const Ct &a, const Ct *b,
          const Pt *pt)
    {
        using f1::HeOpKind;
        std::optional<f1::RnsPoly> encoded;
        if (ckks && pt)
            encoded = ckks->encoder().encode(
                *pt,
                op.kind == HeOpKind::kMulPlain ? ckks->defaultScale()
                                               : a.scale,
                a.level());
        SpanScope s(std::string("fhe.") + opKindName(op.kind), parent);
        const double t0 = nowMs();
        Ct r;
        switch (op.kind) {
          case HeOpKind::kAdd:
            r = bgv ? bgv->add(a, *b) : ckks->add(a, *b);
            break;
          case HeOpKind::kSub:
            r = bgv ? bgv->sub(a, *b) : ckks->sub(a, *b);
            break;
          case HeOpKind::kMul:
            r = bgv ? bgv->mul(a, *b) : ckks->mul(a, *b);
            break;
          case HeOpKind::kAddPlain:
            r = bgv ? bgv->addPlain(a, bgvPts.at(op.b))
                    : ckks->addPlainEncoded(a, *encoded);
            break;
          case HeOpKind::kMulPlain:
            r = bgv ? bgv->mulPlain(a, bgvPts.at(op.b))
                    : ckks->mulPlainEncoded(a, *encoded);
            break;
          case HeOpKind::kRotate:
            r = bgv ? bgv->rotate(a, op.rotateBy)
                    : ckks->rotate(a, op.rotateBy);
            break;
          case HeOpKind::kConjugate:
            r = bgv ? bgv->conjugate(a) : ckks->conjugate(a);
            break;
          case HeOpKind::kModSwitch:
            r = bgv ? bgv->modSwitch(a) : ckks->rescale(a);
            break;
          default:
            F1_REQUIRE(false, "replay reached op " << h << " of kind "
                                                   << opKindName(op.kind));
        }
        kindMs[op.kind] += nowMs() - t0;
        return r;
    }
};

/** What the generator keeps per finished job (outputs are checked
 *  and dropped at the end of each round). */
struct JobRec
{
    double turnMs = 0, queueMs = 0, serviceMs = 0, submitUs = 0;
    size_t batch = 0;
    int prog = 0;
};

/** Registry counters whose change over the timed windows the traced
 *  run reports. */
const char *const kWindowCounters[] = {
    "cache.serving_encoding.hits", "cache.serving_encoding.misses",
    "serving.shed_jobs", "scratch.heap_allocs"};

struct Rounds
{
    std::vector<JobRec> jobs;
    std::map<std::string, double> counterDelta; //!< kWindowCounters
    double batches = 0, batchMembers = 0; //!< serving.batch_size delta
    std::vector<double> roundTails;
    double tailPct = 0;
    double windowMs = 0;
    uint64_t correct = 0;
    uint64_t attempted = 0;
};

std::string
missCounter(const ServeSpec &spec)
{
    return spec.ckks ? "cache.ckks_hints.misses" : "cache.bgv_hints.misses";
}

class ServingBench
{
  public:
    ServingBench(ServeSpec spec, uint64_t seed, Report &rep)
        : spec_(std::move(spec)), rep_(rep), inputs_(spec_, seed)
    {
        for (unsigned t = 0; t < spec_.tenants; ++t)
            tenantNames_.push_back("tenant" + std::to_string(t));
    }

    /** Builds one instance and warms it until no cache misses. */
    void
    setup(Instance &inst)
    {
        inst.ctx = std::make_unique<f1::FheContext>(spec_.params);
        if (spec_.ckks)
            inst.ckks = std::make_unique<f1::CkksScheme>(inst.ctx.get());
        else
            inst.bgv = std::make_unique<f1::BgvScheme>(inst.ctx.get());
        const f1::F1Config cfg;
        for (const f1::Program &p : spec_.programs)
            inst.compiled.push_back(f1::compileProgram(p, cfg));
        f1::ServingConfig sc;
        sc.workers = spec_.workers;
        sc.inlineIntraOp = spec_.inlineIntraOp;
        inst.engine =
            spec_.ckks
                ? std::make_unique<f1::ServingEngine>(inst.ckks.get(), sc)
                : std::make_unique<f1::ServingEngine>(inst.bgv.get(), sc);

        // Warm-up bursts of the full mix until neither the hint cache
        // nor the encoding cache misses any more.
        const size_t burst = std::max<size_t>(
            spec_.window * 2, spec_.mixCycle.size() * spec_.tenants);
        uint64_t prev = UINT64_MAX;
        for (int it = 0; it < 64; ++it) {
            runJobs(inst, kWarmBase + size_t(it) * burst, burst, false,
                    nullptr);
            const auto snap = f1::obs::MetricsRegistry::global().snapshot();
            const uint64_t miss =
                counterOf(snap, missCounter(spec_)) +
                counterOf(snap, "cache.serving_encoding.misses");
            if (miss == prev)
                return;
            prev = miss;
        }
        rep_.fail("warm-up never stopped missing the caches");
    }

    /** Median of `count` set-ups; `inst` keeps the last one. Every
     *  set-up must compile to the same model counts. */
    double
    timedSetups(Instance &inst, int count)
    {
        std::vector<double> s;
        std::vector<ModelCounts> first;
        for (int i = 0; i < count; ++i) {
            inst.reset();
            const double t0 = nowMs();
            setup(inst);
            s.push_back((nowMs() - t0) / 1e3);
            if (i == 0)
                first = modelCounts(inst);
            else if (modelCounts(inst) != first)
                rep_.fail("model counts differ between set-ups");
        }
        return median(std::move(s));
    }

    /** Untimed load for about a second after set-up: the first loaded
     *  second after a set-up runs measurably slower than the rest. */
    void
    settle(Instance &inst)
    {
        const double t0 = nowMs();
        for (size_t k = 0; nowMs() - t0 < 1000; ++k)
            runJobs(inst, kSettleBase + k * spec_.window, spec_.window,
                    false, nullptr);
    }

    /** `rounds` closed-loop rounds; outputs are checked between
     *  rounds, outside the timed window. */
    Rounds
    runRounds(Instance &inst, size_t firstJob, size_t rounds,
              size_t perRound, bool traced)
    {
        Rounds r;
        for (size_t k = 0; k < rounds; ++k) {
            std::vector<Done> done;
            const size_t base = firstJob + k * perRound;
            auto &reg = f1::obs::MetricsRegistry::global();
            const auto before = reg.snapshot();
            const double t0 = nowMs();
            runJobs(inst, base, perRound, traced, &done);
            r.windowMs += nowMs() - t0;
            const auto after = reg.snapshot();
            for (const char *name : kWindowCounters)
                r.counterDelta[name] += double(counterOf(after, name) -
                                               counterOf(before, name));
            const auto batch = [](const f1::obs::MetricsSnapshot &snap) {
                return snap.histograms.at("serving.batch_size");
            };
            r.batches += double(batch(after).count - batch(before).count);
            r.batchMembers += batch(after).sum - batch(before).sum;
            // Decrypting is the slow part of checking; jobs are checked
            // in parallel on the pool, each op inline inside its job.
            std::vector<Check> checks(done.size());
            f1::parallelFor(0, done.size(), [&](size_t i) {
                if (done[i].result)
                    checks[i] = checkOutputs(inst, done[i],
                                             inputs_.make(done[i].job));
            });
            std::vector<double> turn;
            for (size_t i = 0; i < done.size(); ++i) {
                Done &d = done[i];
                maxCkksErr_ = std::max(maxCkksErr_, checks[i].maxErr);
                maxCkksAbs_ = std::max(maxCkksAbs_, checks[i].maxAbs);
                turn.push_back(d.rec.turnMs);
                r.correct += checks[i].ok;
                r.jobs.push_back(d.rec);
            }
            r.attempted += perRound;
            r.roundTails.push_back(tailWithTenBeyond(turn, &r.tailPct));
        }
        return r;
    }

    void runTimed();
    void runTraced();

  private:
    static constexpr size_t kWarmBase = size_t(1) << 40;
    static constexpr size_t kSettleBase = size_t(3) << 40;

    struct Done
    {
        size_t job = 0;
        JobRec rec;
        std::optional<f1::JobResult> result;
    };

    /** Closed loop: keeps `window` jobs outstanding until `count`
     *  jobs have been submitted; shed jobs leave no Done record. With
     *  one job outstanding the generator blocks on it; with more it
     *  polls every outstanding future, so each turnaround ends when
     *  its own future resolves, not when an older job's does. */
    void
    runJobs(Instance &inst, size_t first, size_t count, bool traced,
            std::vector<Done> *out)
    {
        struct Pending
        {
            size_t job;
            double t0;
            double submitUs;
            int jobSpan;
            int futureSpan;
            std::future<f1::JobResult> fut;
        };
        std::deque<Pending> q;
        size_t next = 0;
        auto finish = [&](Pending &p) {
            Done d;
            d.job = p.job;
            d.rec.turnMs = nowMs() - p.t0;
            d.rec.submitUs = p.submitUs;
            d.rec.prog = inputs_.programOf(p.job);
            spans().close(p.futureSpan);
            spans().close(p.jobSpan);
            try {
                f1::JobResult res = p.fut.get();
                d.rec.queueMs = res.queueMs;
                d.rec.serviceMs = res.serviceMs;
                d.rec.batch = res.exec.batchSize;
                d.result = std::move(res);
            } catch (const std::exception &e) {
                rep_.fail(std::string("job failed: ") + e.what());
            }
            if (out)
                out->push_back(std::move(d));
        };
        while (next < count || !q.empty()) {
            while (next < count && q.size() < spec_.window) {
                const size_t job = first + next++;
                const int p = inputs_.programOf(job);
                f1::JobRequest req;
                req.program = &spec_.programs[size_t(p)];
                req.hints = &inst.compiled[size_t(p)].hints;
                req.tenant = tenantNames_[inputs_.tenantOf(job)];
                req.inputs = inputs_.make(job);
                Pending pd;
                pd.job = job;
                pd.t0 = nowMs();
                pd.jobSpan = traced ? spans().open("job", -1, job) : -1;
                try {
                    SpanScope s("serving.submit", pd.jobSpan, job);
                    pd.fut = inst.engine->submit(std::move(req));
                } catch (const f1::AdmissionRejected &) {
                    spans().close(pd.jobSpan);
                    continue;
                }
                pd.submitUs = (nowMs() - pd.t0) * 1e3;
                pd.futureSpan =
                    traced ? spans().open("serving.future", pd.jobSpan, job)
                           : -1;
                q.push_back(std::move(pd));
            }
            if (q.empty())
                continue;
            if (q.size() == 1) {
                q.front().fut.wait();
                finish(q.front());
                q.pop_front();
                continue;
            }
            bool any = false;
            for (auto it = q.begin(); it != q.end();) {
                if (it->fut.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    finish(*it);
                    it = q.erase(it);
                    any = true;
                } else {
                    ++it;
                }
            }
            if (!any)
                std::this_thread::yield();
        }
    }

    /** Outcome of checking one job against the oracle; CKKS also
     *  reports its largest error and output magnitude. */
    struct Check
    {
        bool ok = false;
        double maxErr = 0, maxAbs = 0;
    };

    /** Decrypts a job's outputs and compares them with the oracle. */
    Check
    checkOutputs(Instance &inst, const Done &d,
                 const f1::RuntimeInputs &in) const
    {
        Check c;
        const f1::Program &prog = spec_.programs[size_t(d.rec.prog)];
        const auto &outs = d.result->exec.outputs;
        if (spec_.ckks) {
            for (const auto &[h, slots] : oracleCkks(prog, in)) {
                auto it = outs.find(h);
                if (it == outs.end())
                    return c;
                const auto got = inst.ckks->decrypt(it->second);
                for (size_t i = 0; i < slots.size(); ++i) {
                    const double err = std::abs(got[i] - slots[i]);
                    c.maxErr = std::max(c.maxErr, err);
                    c.maxAbs = std::max(c.maxAbs, std::abs(slots[i]));
                    if (!(err <= spec_.ckksTol))
                        return c;
                }
            }
        } else {
            for (const auto &[h, slots] :
                 oracleBgv(prog, in, inst.bgv->plainModulus())) {
                auto it = outs.find(h);
                if (it == outs.end() ||
                    inst.bgv->decryptSlots(it->second) != slots)
                    return c;
            }
        }
        c.ok = true;
        return c;
    }

    uint64_t
    hintMisses() const
    {
        return counterOf(f1::obs::MetricsRegistry::global().snapshot(),
                         missCounter(spec_));
    }

    std::vector<ModelCounts>
    modelCounts(const Instance &inst) const
    {
        std::vector<ModelCounts> c;
        for (const f1::CompileResult &r : inst.compiled)
            c.push_back(countsOf(r));
        return c;
    }

    void checkRounds(uint64_t correct, uint64_t attempted,
                     uint64_t missBefore);
    /** Replay operands: encrypted inputs and encoded BGV plaintexts. */
    struct ReplayInputs
    {
        std::map<int, f1::Ciphertext> enc;
        std::map<int, std::vector<int64_t>> bgvPts;
    };
    ReplayInputs replayInputs(Instance &inst, const f1::Program &prog,
                              const f1::RuntimeInputs &in);
    std::map<f1::HeOpKind, double>
    replayOnce(Instance &inst, const f1::Program &prog,
               const f1::RuntimeInputs &in, const ReplayInputs &ri,
               bool inlineOnly, bool check);
    void traceLayers(Instance &inst, const Rounds &traced);

    ServeSpec spec_;
    Report &rep_;
    Inputs inputs_;
    std::vector<std::string> tenantNames_;
    double maxCkksErr_ = 0, maxCkksAbs_ = 0;
};

/** Records the timed windows' job outcomes and fails the run on any
 *  oracle mismatch or hint miss since `missBefore`. */
void
ServingBench::checkRounds(uint64_t correct, uint64_t attempted,
                          uint64_t missBefore)
{
    rep_.attempted += attempted;
    rep_.failed += attempted - correct;
    const uint64_t missed = hintMisses() - missBefore;
    if (missed != 0)
        rep_.fail(std::to_string(missed) +
                  " key-switch hint misses inside the timed window");
    if (correct != attempted)
        rep_.fail(std::to_string(attempted - correct) + " of " +
                  std::to_string(attempted) +
                  " jobs did not match the plaintext oracle");
    if (spec_.ckks) {
        char buf[160];
        snprintf(buf, sizeof buf,
                 "CKKS oracle: max |error| %.3g (tolerance %.1g) over "
                 "outputs up to |%.3g|",
                 maxCkksErr_, spec_.ckksTol, maxCkksAbs_);
        rep_.note(buf);
    }
}

void
ServingBench::runTimed()
{
    Instance inst;
    const double setupS = timedSetups(inst, spec_.setups);
    settle(inst);

    const std::vector<ModelCounts> counts = modelCounts(inst);
    const uint64_t missBefore = hintMisses();
    Rounds r = runRounds(inst, 0, spec_.rounds, spec_.jobsPerRound, false);
    checkRounds(r.correct, r.attempted, missBefore);

    std::vector<double> turn;
    for (const JobRec &j : r.jobs)
        turn.push_back(j.turnMs);
    double tailPct = r.tailPct;
    const double tail = spec_.pooledTail ? tailWithTenBeyond(turn, &tailPct)
                                         : median(r.roundTails);
    char buf[200];
    snprintf(buf, sizeof buf,
             "%s: %zu rounds x %zu jobs, window %u, %u workers; "
             "job_tail_ms = p%.1f of %s",
             spec_.name.c_str(), spec_.rounds, spec_.jobsPerRound,
             spec_.window, spec_.workers, tailPct,
             spec_.pooledTail ? "all jobs" : "each round, median over rounds");
    rep_.note(buf);

    const ModelSummary model = summarize(counts, f1::F1Config());
    rep_.note("model digest " + std::to_string(model.digest) +
             " (must match across runs of the same code)");

    rep_.add("setup_s", setupS, "s");
    rep_.add("job_p50_ms", median(turn), "ms");
    rep_.add("job_tail_ms", tail, "ms");
    rep_.add("throughput_jobs_s", double(r.correct) / (r.windowMs / 1e3),
             "jobs/s");
    rep_.add("ok_frac", double(r.correct) / double(r.attempted), "ratio");
    rep_.add("peak_rss_mb", peakRssMb(), "MB");
    rep_.add("f1_sim_gmean_ms", model.gmeanMs, "model_ms");
    rep_.add("f1_hbm_mb", model.hbmMb, "MB");
}

void
ServingBench::runTraced()
{
    Instance inst;
    timedSetups(inst, 1);
    settle(inst);
    const uint64_t missBefore = hintMisses();
    const size_t rounds = std::max<size_t>(1, spec_.rounds / 2);
    const size_t perRound = spec_.jobsPerRound;
    Rounds plain = runRounds(inst, 0, rounds, perRound, false);

    spans().enabled = true;
    Rounds traced =
        runRounds(inst, rounds * perRound, rounds, perRound, true);

    checkRounds(plain.correct + traced.correct,
                plain.attempted + traced.attempted, missBefore);

    auto delta = [&](const char *name) { return traced.counterDelta[name]; };
    std::vector<double> qMs, sMs, subUs, tPlain, tTraced;
    for (const JobRec &j : traced.jobs) {
        qMs.push_back(j.queueMs);
        sMs.push_back(j.serviceMs);
        subUs.push_back(j.submitUs);
        tTraced.push_back(j.turnMs);
    }
    for (const JobRec &j : plain.jobs)
        tPlain.push_back(j.turnMs);
    const double jobs = double(traced.attempted);
    const double batches = traced.batches;
    const double members = traced.batchMembers;
    const double encHits = delta("cache.serving_encoding.hits");
    const double encMiss = delta("cache.serving_encoding.misses");

    rep_.add("serving.queue_ms_p50", median(qMs), "ms");
    rep_.add("serving.service_ms_p50", median(sMs), "ms");
    rep_.add("serving.submit_us_p50", median(subUs), "us");
    rep_.add("serving.batch_size_mean", batches > 0 ? members / batches : 0,
             "jobs");
    rep_.add("serving.encoding_hit_ratio",
             encHits + encMiss > 0 ? encHits / (encHits + encMiss) : 0,
             "ratio");
    rep_.add("serving.shed_frac", delta("serving.shed_jobs") / jobs,
             "ratio");
    rep_.add("fhe.hint_miss_timed", double(hintMisses() - missBefore),
             "count");
    rep_.add("common.scratch_heap_allocs_per_job",
             delta("scratch.heap_allocs") / jobs, "count");
    rep_.add("trace.overhead_ratio", median(tTraced) / median(tPlain),
             "ratio");
    traceLayers(inst, traced);
}

ServingBench::ReplayInputs
ServingBench::replayInputs(Instance &inst, const f1::Program &prog,
                           const f1::RuntimeInputs &in)
{
    ReplayInputs ri;
    f1::Rng rng(in.seed);
    for (const auto &[h, b] : in.bindings) {
        const f1::HeOp &op = prog.ops()[size_t(h)];
        if (op.kind == f1::HeOpKind::kInput) {
            ri.enc[h] = inst.bgv ? inst.bgv->encryptSlots(
                                       std::get<std::vector<uint64_t>>(b),
                                       op.level, rng)
                                 : inst.ckks->encrypt(
                                       std::get<Replay::Pt>(b), op.level, rng);
        } else if (inst.bgv) {
            ri.bgvPts[h] = inst.bgv->encoder().encodeSlots(
                std::get<std::vector<uint64_t>>(b));
        }
    }
    return ri;
}

std::map<f1::HeOpKind, double>
ServingBench::replayOnce(Instance &inst, const f1::Program &prog,
                         const f1::RuntimeInputs &in,
                         const ReplayInputs &ri, bool inlineOnly,
                         bool check)
{
    std::optional<f1::InlineParallelScope> inlineScope;
    if (inlineOnly)
        inlineScope.emplace();
    SpanScope s(inlineOnly ? "executor.replay.serial"
                           : "executor.replay.pool");
    Replay v{inst.bgv.get(), inst.ckks.get(), ri.enc, ri.bgvPts, in, {},
             s.id()};
    auto outs = walkProgram(prog, v);
    if (check) {
        // The replay must compute what the oracle computes.
        Done d;
        d.result.emplace();
        d.result->exec.outputs = std::move(outs);
        for (size_t j = 0; j < spec_.programs.size(); ++j)
            if (&spec_.programs[j] == &prog)
                d.rec.prog = int(j);
        if (!checkOutputs(inst, d, in).ok)
            rep_.fail("per-op replay of " + prog.name() +
                      " disagrees with the plaintext oracle");
    }
    return v.kindMs;
}

/**
 * Executor, replay, kernel, compiler and model layers, plus the
 * serving ledger: job turnaround = queue + prepare + per-op time by
 * kind + executor + unattributed. Each term is charged per job as
 * batch size times the solo cost of its program (a job waits for its
 * whole batch), measured in the engine's own mode: work-stealing,
 * single-threaded for throughput-mode workers and over the pool for a
 * latency-mode worker. "executor" is that execution's wall time minus
 * its per-op sum: scheduling overhead when positive, time saved by
 * overlapping ops when negative.
 */
void
ServingBench::traceLayers(Instance &inst, const Rounds &traced)
{
    struct Probe
    {
        double prep = 0, exec = 0, ops = 0, ws = 0;  //!< serial + ws
        double engPrep = 0, engExec = 0, engOps = 0; //!< engine mode
        std::map<f1::HeOpKind, double> engKinds;
    };
    const size_t np = spec_.programs.size();
    std::vector<Probe> pr(np);
    double peakCts = 0;
    const int reps = spec_.probeReps;
    // One execution under `pol`: {prepare, execute} ms, where prepare
    // is the call's time outside wallMs.
    auto timeExec = [&](const f1::OpGraphExecutor &exec,
                        const f1::RuntimeInputs &in,
                        const f1::ExecutionPolicy &pol, const char *span) {
        SpanScope s(span);
        const double t0 = nowMs();
        f1::ExecutionResult res = exec.execute(in, pol);
        const double total = nowMs() - t0;
        peakCts = std::max(peakCts, double(res.peakResidentCiphertexts));
        return std::pair<double, double>{total - res.wallMs, res.wallMs};
    };
    // Median of each kind's time, and the sum of those medians.
    auto kindMedians = [](const std::vector<std::map<f1::HeOpKind, double>> &v,
                          std::map<f1::HeOpKind, double> &out) {
        std::map<f1::HeOpKind, std::vector<double>> by;
        for (const auto &m : v)
            for (const auto &[k, ms] : m)
                by[k].push_back(ms);
        double sum = 0;
        for (auto &[k, xs] : by)
            sum += out[k] = median(xs);
        return sum;
    };
    for (size_t p = 0; p < np; ++p) {
        const f1::Program &prog = spec_.programs[p];
        const f1::RuntimeInputs in =
            inputs_.make(kWarmBase * 2 + p, int(p), 0);
        const ReplayInputs ri = replayInputs(inst, prog, in);
        f1::EncodingCache cache(1024);
        const f1::ScheduleHints *hints = &inst.compiled[p].hints;
        std::unique_ptr<f1::OpGraphExecutor> exec =
            spec_.ckks
                ? std::make_unique<f1::OpGraphExecutor>(prog, inst.ckks.get())
                : std::make_unique<f1::OpGraphExecutor>(prog, inst.bgv.get());
        const f1::ExecutionPolicy serial{f1::SchedulerKind::kSerial, hints,
                                         0, &cache, {}};
        const f1::ExecutionPolicy ws{f1::SchedulerKind::kWorkStealing,
                                     hints, 0, &cache, {}};
        exec->execute(in, serial); // warms the local encoding cache
        // Repetitions interleave every measured mode, so slow drifts
        // of the host hit all of them alike.
        std::vector<double> prep, ex, wsw, wsPrep, engPrep, engEx;
        std::vector<std::map<f1::HeOpKind, double>> kinds, engKinds;
        for (int r = 0; r < reps; ++r) {
            {
                f1::InlineParallelScope inlineOnly;
                auto [a, b] =
                    timeExec(*exec, in, serial, "executor.execute.serial");
                prep.push_back(a);
                ex.push_back(b);
                if (spec_.inlineIntraOp) {
                    auto [c, d] = timeExec(*exec, in, ws,
                                           "executor.execute.ws_inline");
                    engPrep.push_back(c);
                    engEx.push_back(d);
                }
            }
            kinds.push_back(replayOnce(inst, prog, in, ri, true, r == 0));
            auto [a, b] = timeExec(*exec, in, ws, "executor.execute.ws");
            wsPrep.push_back(a);
            wsw.push_back(b);
            if (!spec_.inlineIntraOp)
                engKinds.push_back(
                    replayOnce(inst, prog, in, ri, false, false));
        }
        Probe &q = pr[p];
        q.prep = median(prep);
        q.exec = median(ex);
        q.ws = median(wsw);
        q.ops = kindMedians(kinds, q.engKinds);
        if (spec_.inlineIntraOp) {
            q.engPrep = median(engPrep);
            q.engExec = median(engEx);
            q.engOps = q.ops;
        } else {
            q.engPrep = median(wsPrep);
            q.engExec = q.ws;
            q.engKinds.clear();
            q.engOps = kindMedians(engKinds, q.engKinds);
        }
    }

    double prep = 0, ex = 0, ops = 0, wsSum = 0;
    std::vector<double> wsMs;
    for (size_t p = 0; p < np; ++p) {
        const double share = shareOf(spec_, p);
        prep += share * pr[p].prep;
        ex += share * pr[p].exec;
        ops += share * pr[p].ops;
        wsSum += share * pr[p].ws;
        wsMs.push_back(pr[p].ws);
    }
    rep_.add("executor.prepare_ms", prep, "ms");
    rep_.add("executor.execute_ms", ex, "ms");
    rep_.add("executor.op_sum_ms", ops, "ms");
    rep_.add("executor.unattributed_frac", (ex - ops) / ex, "ratio");
    rep_.add("executor.ws_speedup", ex / wsSum, "ratio");
    rep_.add("executor.peak_resident_cts", peakCts, "count");

    // Serving ledger over the traced window.
    double turn = 0, queue = 0, prepL = 0, execL = 0;
    std::map<f1::HeOpKind, double> kindL;
    for (const JobRec &j : traced.jobs) {
        const Probe &q = pr[size_t(j.prog)];
        const double b = double(j.batch);
        turn += j.turnMs;
        queue += j.queueMs;
        prepL += b * q.engPrep;
        execL += b * (q.engExec - q.engOps);
        for (const auto &[k, ms] : q.engKinds)
            kindL[k] += b * ms;
    }
    const double nj = double(traced.jobs.size());
    double unattr = turn - queue - prepL - execL;
    for (const auto &[k, ms] : kindL)
        unattr -= ms;
    char buf[200];
    snprintf(buf, sizeof buf,
             "serving ledger, mean over %zu traced jobs; base = mean "
             "turnaround %.4f ms:",
             traced.jobs.size(), turn / nj);
    rep_.note(buf);
    auto line = [&](const char *what, double total) {
        snprintf(buf, sizeof buf, "  %-16s %10.4f ms  %6.2f%%", what,
                 total / nj, 100 * total / turn);
        rep_.note(buf);
    };
    line("queue", queue);
    line("prepare", prepL);
    for (const auto &[k, ms] : kindL)
        line((std::string("op:") + opKindName(k)).c_str(), ms);
    line("executor", execL);
    line("unattributed", unattr);
    rep_.add("ledger.unattributed_frac", unattr / turn, "ratio");

    reportKernelLayers(rep_, inst.bgv.get(), inst.ckks.get(),
                       spec_.params.maxLevel);

    std::vector<NamedProgram> named;
    for (size_t p = 0; p < np; ++p)
        named.push_back({&spec_.programs[p], spec_.paperF1Ms[p], false});
    reportCompilerLayers(rep_, named, wsMs, 3);
}

} // namespace

void
runServeBgv(const Args &a, Report &rep)
{
    ServingBench b(serveBgvSpec(a.seconds), a.seed, rep);
    if (a.trace)
        b.runTraced();
    else
        b.runTimed();
}

void
runInferCkks(const Args &a, Report &rep)
{
    ServingBench b(inferCkksSpec(a.seconds), a.seed, rep);
    if (a.trace)
        b.runTraced();
    else
        b.runTimed();
}

} // namespace perfbench
