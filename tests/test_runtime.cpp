/**
 * @file
 * Serving-runtime tests: the LRU cache, the DAG executor under both
 * ExecutionPolicy schedulers (bit-identity of work stealing against
 * the serial order across thread counts and with compiler schedule
 * hints, liveness-based release, cycle rejection), encoding-cache
 * sharing across runs, and the multi-tenant serving pipeline
 * (admission control driven by the metrics registry, served jobs
 * matching isolated execution across worker counts, one tenant's bad
 * job failing only that job, queue-depth gauges, shutdown under
 * load).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "common/lru_cache.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "runtime/op_graph_executor.h"
#include "runtime/serving.h"

namespace f1 {
namespace {

//
// LruCache
//

TEST(LruCacheTest, PutGetAndEvictionOrder)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    ASSERT_NE(cache.get(1), nullptr); // 1 is now most recent
    cache.put(3, 30);                 // evicts 2
    EXPECT_EQ(cache.get(2), nullptr);
    ASSERT_NE(cache.get(1), nullptr);
    EXPECT_EQ(*cache.get(1), 10);
    ASSERT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, GetOrCreateComputesOnce)
{
    LruCache<int, int> cache;
    int calls = 0;
    auto make = [&] {
        ++calls;
        return 42;
    };
    EXPECT_EQ(*cache.getOrCreate(7, make), 42);
    EXPECT_EQ(*cache.getOrCreate(7, make), 42);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCacheTest, PinnedValueSurvivesEviction)
{
    LruCache<int, std::vector<int>> cache(1);
    auto pinned = cache.put(1, std::vector<int>{1, 2, 3});
    cache.put(2, std::vector<int>{4}); // evicts key 1
    EXPECT_EQ(cache.get(1), nullptr);
    ASSERT_EQ(pinned->size(), 3u); // still alive through our pin
    EXPECT_EQ((*pinned)[2], 3);
}

TEST(LruCacheTest, SetCapacityEvictsDown)
{
    LruCache<int, int> cache;
    for (int i = 0; i < 8; ++i)
        cache.put(i, i);
    cache.setCapacity(3);
    EXPECT_EQ(cache.size(), 3u);
    // The three most recently inserted survive.
    EXPECT_NE(cache.get(7), nullptr);
    EXPECT_NE(cache.get(6), nullptr);
    EXPECT_NE(cache.get(5), nullptr);
    EXPECT_EQ(cache.get(4), nullptr);
}

TEST(InlineParallelScopeTest, ForcesInlineExecution)
{
    setGlobalThreadCount(4);
    std::set<std::thread::id> ids;
    std::mutex m;
    {
        InlineParallelScope guard;
        parallelFor(0, 64, [&](size_t) {
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        });
    }
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_TRUE(ids.count(std::this_thread::get_id()));
    setGlobalThreadCount(0);
}

//
// Executor fixtures
//

FheParams
smallParams()
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 8;
    p.primeBits = 28;
    p.plainModulus = 65537;
    return p;
}

/** Two inputs, one plain, parallel branches, one dead op. */
Program
diamondProgram()
{
    Program p(256, 8, "diamond");
    int x = p.input();
    int y = p.input();
    int w = p.inputPlain();
    int a = p.mul(x, y);
    int b = p.rotate(x, 1);
    int c = p.mulPlain(y, w);
    int d = p.add(a, c);
    int e = p.sub(d, b);
    int f = p.modSwitch(e);
    int g = p.conjugate(f);
    p.mul(x, x); // dead: never consumed, must be released not leaked
    p.output(g);
    p.output(b);
    return p;
}

/** Serial accumulation chain: x added into an accumulator 12 times. */
Program
chainProgram()
{
    Program p(256, 8, "chain");
    int x = p.input();
    int acc = x;
    for (int i = 0; i < 12; ++i)
        acc = p.add(acc, x);
    p.output(acc);
    return p;
}

std::vector<uint32_t>
ctBits(const Ciphertext &ct)
{
    std::vector<uint32_t> out;
    for (const auto &poly : ct.polys)
        out.insert(out.end(), poly.raw().begin(), poly.raw().end());
    return out;
}

void
expectIdenticalOutputs(const ExecutionResult &a,
                       const ExecutionResult &b)
{
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (const auto &[h, ct] : a.outputs) {
        auto it = b.outputs.find(h);
        ASSERT_NE(it, b.outputs.end()) << "missing output " << h;
        EXPECT_EQ(ctBits(ct), ctBits(it->second))
            << "output " << h << " diverged";
        EXPECT_EQ(ct.noiseBits, it->second.noiseBits);
        EXPECT_EQ(ct.scale, it->second.scale);
        EXPECT_EQ(ct.ptCorrection, it->second.ptCorrection);
    }
}

TEST(OpGraphExecutorTest, BitIdenticalAcrossThreadCounts)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 17;

    setGlobalThreadCount(1);
    auto serial = exec.execute(in);
    for (unsigned threads : {2u, 4u}) {
        setGlobalThreadCount(threads);
        auto threaded = exec.execute(in);
        expectIdenticalOutputs(serial, threaded);
    }
    setGlobalThreadCount(0);
}

TEST(OpGraphExecutorTest, RepeatedRunsAreIdentical)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 19;
    auto first = exec.execute(in);
    auto second = exec.execute(in);
    expectIdenticalOutputs(first, second);
}

TEST(OpGraphExecutorTest, LivenessReleasesDeadCiphertexts)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = chainProgram();
    OpGraphExecutor exec(p, &bgv);

    RuntimeInputs in;
    in.bind(0, std::vector<uint64_t>(256, 1));
    auto res = exec.execute(in);

    // Chain: input + current accumulator + freshly produced op. The
    // pre-liveness executor held all 13 intermediates to the end.
    EXPECT_LE(res.peakResidentCiphertexts, 4u);
    EXPECT_GE(res.peakResidentCiphertexts, 2u);

    auto slots = bgv.decryptSlots(res.outputs.begin()->second);
    EXPECT_EQ(slots[0], 13u); // 1 + 12 additions of 1
}

TEST(OpGraphExecutorTest, HintCacheHitsOnRepeatedPrograms)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    exec.execute();
    const auto cold = bgv.hintCacheStats();
    exec.execute();
    const auto warm = bgv.hintCacheStats();
    EXPECT_GT(warm.hits, cold.hits);
    EXPECT_EQ(warm.misses, cold.misses); // nothing regenerated
}

TEST(OpGraphExecutorTest, CappedHintCacheStaysCorrect)
{
    FheContext ctx(smallParams());
    BgvScheme reference(&ctx);
    BgvScheme capped(&ctx);
    capped.setHintCacheCapacity(1); // every key-switch evicts
    Program p = diamondProgram();

    RuntimeInputs in;
    in.seed = 23;
    auto a = OpGraphExecutor(p, &reference).execute(in);
    auto b = OpGraphExecutor(p, &capped).execute(in);
    expectIdenticalOutputs(a, b);
    EXPECT_GT(capped.hintCacheStats().evictions, 0u);
}

//
// ExecutionPolicy / work-stealing scheduler
//

ExecutionPolicy
policyFor(SchedulerKind k, const ScheduleHints *hints = nullptr)
{
    ExecutionPolicy pol;
    pol.scheduler = k;
    pol.scheduleHints = hints;
    return pol;
}

TEST(OpGraphExecutorTest, WorkStealingMatchesSerialBgv)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;
    ASSERT_EQ(hints.size(), p.ops().size());

    RuntimeInputs in;
    in.seed = 29;
    const auto serial =
        exec.execute(in, policyFor(SchedulerKind::kSerial));
    EXPECT_EQ(serial.peakOpsInFlight, 1u);
    for (unsigned threads : {1u, 2u, 8u}) {
        setGlobalThreadCount(threads);
        const auto ws =
            exec.execute(in, policyFor(SchedulerKind::kWorkStealing));
        expectIdenticalOutputs(serial, ws);
        EXPECT_GE(ws.peakOpsInFlight, 1u);
        EXPECT_LE(ws.peakOpsInFlight, threads);
        expectIdenticalOutputs(
            serial,
            exec.execute(in, policyFor(SchedulerKind::kWorkStealing,
                                       &hints)));
    }
    setGlobalThreadCount(0);
}

TEST(OpGraphExecutorTest, WorkStealingMatchesSerialCkks)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-ws");
    int x = p.input();
    int y = p.input();
    int w = p.inputPlain();
    int a = p.mul(x, y);
    int r = p.modSwitch(a); // rescale
    int b = p.rotate(r, 1);
    p.output(p.add(b, r));
    p.output(b);
    // Two independent ops encode w, concurrently under work stealing.
    p.output(p.add(p.mulPlain(x, w), p.mulPlain(y, w)));

    OpGraphExecutor exec(p, &ckks);
    RuntimeInputs in;
    in.seed = 31;
    const auto serial =
        exec.execute(in, policyFor(SchedulerKind::kSerial));
    for (unsigned threads : {1u, 2u, 8u}) {
        setGlobalThreadCount(threads);
        EncodingCache cache(8, "");
        ExecutionPolicy ws = policyFor(SchedulerKind::kWorkStealing);
        ws.encodingCache = &cache;
        const auto res = exec.execute(in, ws);
        expectIdenticalOutputs(serial, res);
        EXPECT_EQ(res.encodingCacheHits + res.encodingCacheMisses, 2u);
    }
    setGlobalThreadCount(0);
}

TEST(OpGraphExecutorTest, HintedPriorityIsDeterministic)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    RuntimeInputs in;
    in.seed = 37;
    // Hints reorder the ready set (many ops tie at startCycle 0 in a
    // shallow graph, so releaseRank and handle break the ties); the
    // pop order must still be a deterministic total order, and the
    // outputs must not depend on the hint-driven order at all.
    const auto pol = policyFor(SchedulerKind::kWorkStealing, &hints);
    const auto first = exec.execute(in, pol);
    expectIdenticalOutputs(first, exec.execute(in, pol));
    expectIdenticalOutputs(
        first,
        exec.execute(in, policyFor(SchedulerKind::kWorkStealing)));
}

TEST(OpGraphExecutorTest, ThreadBudgetCapsWorkersBitIdentically)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 41;

    setGlobalThreadCount(4);
    ExecutionPolicy wide = policyFor(SchedulerKind::kWorkStealing);
    ExecutionPolicy narrow = wide;
    narrow.threadBudget = 1;
    expectIdenticalOutputs(exec.execute(in, wide),
                           exec.execute(in, narrow));
    setGlobalThreadCount(0);
}

TEST(OpGraphExecutorTest, RejectsCyclicProgram)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p(256, 8, "cyclic");
    p.pushRaw({HeOpKind::kInput, -1, -1, 0, 8});
    // 1 and 2 feed each other: no topological order exists.
    p.pushRaw({HeOpKind::kAdd, 0, 2, 0, 8});
    p.pushRaw({HeOpKind::kAdd, 0, 1, 0, 8});
    p.pushRaw({HeOpKind::kOutput, 2, -1, 0, 8});
    try {
        OpGraphExecutor exec(p, &bgv);
        FAIL() << "cycle not rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cycle"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("1"), std::string::npos);
    }
}

TEST(OpGraphExecutorTest, RejectsSelfReferenceAndBadHandle)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program self(256, 8, "self");
    self.pushRaw({HeOpKind::kAdd, 0, 0, 0, 8});
    EXPECT_THROW(OpGraphExecutor(self, &bgv), FatalError);

    Program oob(256, 8, "oob");
    oob.pushRaw({HeOpKind::kInput, -1, -1, 0, 8});
    oob.pushRaw({HeOpKind::kRotate, 7, -1, 1, 8});
    EXPECT_THROW(OpGraphExecutor(oob, &bgv), FatalError);
}

TEST(OpGraphExecutorTest, ForwardReferencesExecuteInTopoOrder)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);

    // pushRaw program with a forward reference: the output names an
    // op appended after it. Equivalent builder program for reference.
    Program fwd(256, 8, "fwd");
    fwd.pushRaw({HeOpKind::kInput, -1, -1, 0, 8});
    fwd.pushRaw({HeOpKind::kOutput, 2, -1, 0, 8});
    fwd.pushRaw({HeOpKind::kAdd, 0, 0, 0, 8});

    Program ref(256, 8, "ref");
    int x = ref.input();
    ref.output(ref.add(x, x));

    RuntimeInputs in;
    in.bind(0, std::vector<uint64_t>(256, 21));
    in.seed = 43;
    auto rf = OpGraphExecutor(fwd, &bgv).execute(
        in, policyFor(SchedulerKind::kSerial));
    auto rr = OpGraphExecutor(ref, &bgv).execute(
        in, policyFor(SchedulerKind::kSerial));
    ASSERT_EQ(rf.outputs.size(), 1u);
    EXPECT_EQ(bgv.decryptSlots(rf.outputs.begin()->second)[0], 42u);
    EXPECT_EQ(ctBits(rf.outputs.begin()->second),
              ctBits(rr.outputs.begin()->second));
}

TEST(OpGraphExecutorTest, MismatchedBindingSchemeThrows)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = chainProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.bind(0, std::vector<std::complex<double>>(128));
    EXPECT_THROW(exec.execute(in), FatalError);
}

TEST(OpGraphExecutorTest, HintSizeMismatchThrows)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    ScheduleHints wrong;
    wrong.startCycle.assign(3, 0);
    wrong.releaseRank.assign(3, 0);
    EXPECT_THROW(
        exec.execute({}, policyFor(SchedulerKind::kWorkStealing,
                                   &wrong)),
        FatalError);
}

//
// Serving engine
//

/** A registry counter's current value (0 before first use). The
 *  engine's counts live only in the process-wide registry, so tests
 *  read them as deltas around what they submit. */
uint64_t
counterNow(const std::string &name)
{
    const auto snap = obs::MetricsRegistry::global().snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

obs::HistogramSnapshot
histogramNow(const std::string &name)
{
    const auto snap = obs::MetricsRegistry::global().snapshot();
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? obs::HistogramSnapshot{}
                                       : it->second;
}

TEST(ServingEngineTest, JobsMatchIsolatedExecutionAndRepeat)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program diamond = diamondProgram();
    Program chain = chainProgram();

    const std::vector<std::string> tenants = {"alice", "bob", "carol"};
    std::vector<uint64_t> sharedWeights(256);
    for (size_t i = 0; i < sharedWeights.size(); ++i)
        sharedWeights[i] = (3 * i + 1) % 65537;

    auto makeRequest = [&](size_t i) {
        JobRequest req;
        req.program = i % 2 == 0 ? &diamond : &chain;
        req.tenant = tenants[i % tenants.size()];
        req.inputs.seed = 100 + i;
        if (i % 2 == 0) // the diamond's model weights, shared by all
            req.inputs.bind(2, sharedWeights);
        return req;
    };
    const size_t kJobs = 12;

    // Isolated reference execution, one job at a time, no caches.
    std::vector<ExecutionResult> isolated;
    for (size_t i = 0; i < kJobs; ++i) {
        JobRequest req = makeRequest(i);
        OpGraphExecutor exec(*req.program, &bgv);
        isolated.push_back(exec.execute(req.inputs));
    }

    for (int round = 0; round < 2; ++round) {
        ServingConfig cfg;
        cfg.workers = 4;
        ServingEngine engine(&bgv, cfg);
        const uint64_t submitted0 = counterNow("serving.jobs_submitted");
        const uint64_t completed0 = counterNow("serving.jobs_completed");
        const uint64_t failed0 = counterNow("serving.jobs_failed");
        const uint64_t hits0 = counterNow("cache.serving_encoding.hits");
        const uint64_t misses0 =
            counterNow("cache.serving_encoding.misses");
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < kJobs; ++i)
            futs.push_back(engine.submit(makeRequest(i)));
        for (size_t i = 0; i < kJobs; ++i) {
            JobResult r = futs[i].get();
            EXPECT_EQ(r.tenant, tenants[i % tenants.size()]);
            EXPECT_GE(r.serviceMs, 0.0);
            expectIdenticalOutputs(isolated[i], r.exec);
        }

        EXPECT_EQ(counterNow("serving.jobs_submitted") - submitted0,
                  kJobs);
        EXPECT_EQ(counterNow("serving.jobs_completed") - completed0,
                  kJobs);
        EXPECT_EQ(counterNow("serving.jobs_failed") - failed0, 0u);
        const auto slo = engine.slo().snapshot();
        for (const auto &t : tenants)
            EXPECT_EQ(slo.at(t).windowTotal, kJobs / 3);
        // 6 diamond jobs share one weight vector: 1 miss, 5 hits.
        EXPECT_GT(counterNow("cache.serving_encoding.hits") - hits0, 0u);
        EXPECT_GE(counterNow("cache.serving_encoding.misses") - misses0,
                  1u);
    }
}

TEST(ServingEngineTest, CkksJobsAndDrain)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-serve");
    int x = p.input();
    int a = p.mul(x, x);
    p.output(p.modSwitch(a));

    ServingConfig cfg;
    cfg.workers = 2;
    ServingEngine engine(&ckks, cfg);
    const uint64_t completed0 = counterNow("serving.jobs_completed");
    std::vector<std::future<JobResult>> futs;
    for (size_t i = 0; i < 6; ++i) {
        JobRequest req;
        req.program = &p;
        req.tenant = i % 2 ? "even" : "odd";
        req.inputs.seed = 40 + i;
        futs.push_back(engine.submit(std::move(req)));
    }
    engine.drain();
    EXPECT_EQ(counterNow("serving.jobs_completed") - completed0, 6u);

    // Determinism with concurrency in flight: same seed, same bits.
    auto r0 = futs[0].get();
    JobRequest again;
    again.program = &p;
    again.inputs.seed = 40;
    auto r = engine.submit(std::move(again)).get();
    expectIdenticalOutputs(r0.exec, r.exec);
}

TEST(ServingEngineTest, WorkStealingPolicyWithPerJobHints)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    // Isolated serial reference.
    RuntimeInputs in;
    in.seed = 53;
    OpGraphExecutor ref(p, &bgv);
    ExecutionPolicy serial;
    serial.scheduler = SchedulerKind::kSerial;
    const auto isolated = ref.execute(in, serial);

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.policy.scheduler = SchedulerKind::kWorkStealing;
    ServingEngine engine(&bgv, cfg);
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 4; ++i) {
        JobRequest req;
        req.program = &p;
        req.inputs.seed = 53;
        req.hints = &hints; // per-job hints for this program shape
        futs.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futs)
        expectIdenticalOutputs(isolated, f.get().exec);
}

TEST(ServingEngineTest, RejectsJobWithoutProgram)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    ServingConfig cfg;
    cfg.workers = 1;
    ServingEngine engine(&bgv, cfg);
    EXPECT_THROW(engine.submit(JobRequest{}), FatalError);
}

//
// Program fingerprinting (the flight recorder's program key)
//

TEST(ProgramFingerprintTest, ContentAddressedNameIndependent)
{
    Program a(256, 8, "alice");
    a.output(a.rotate(a.input(), 1));
    Program b(256, 8, "bob");
    b.output(b.rotate(b.input(), 1));
    // Identical structure, different names and addresses: same key.
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    Program c(256, 8, "alice");
    c.output(c.rotate(c.input(), 2)); // only the rotation differs
    EXPECT_NE(a.fingerprint(), c.fingerprint());

    EXPECT_NE(diamondProgram().fingerprint(),
              chainProgram().fingerprint());
    EXPECT_EQ(diamondProgram().fingerprint(),
              diamondProgram().fingerprint());
}

//
// Encoding cache shared across runs
//

TEST(OpGraphExecutorTest, SequentialRunsShareCkksEncodingCache)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-weights");
    int x = p.input();
    int w = p.inputPlain();
    int v = p.inputPlain();
    int a = p.mulPlain(x, w); // encodes w at (defaultScale, L)
    int r = p.modSwitch(a);
    p.output(p.addPlain(r, v)); // encodes v at (r.scale, L-1)
    OpGraphExecutor exec(p, &ckks);

    // All runs bind the SAME weights (the shared-model serving case)
    // but encrypt different inputs.
    std::vector<std::complex<double>> weights(128), bias(128);
    for (size_t i = 0; i < 128; ++i) {
        weights[i] = {0.25 + 0.001 * double(i), 0.0};
        bias[i] = {-0.5 + 0.002 * double(i), 0.0};
    }
    constexpr size_t kRuns = 4;
    std::vector<RuntimeInputs> ins(kRuns);
    for (size_t i = 0; i < kRuns; ++i) {
        ins[i].seed = 900 + i;
        ins[i].bind(w, weights);
        ins[i].bind(v, bias);
    }

    EncodingCache cache(64, "");
    ExecutionPolicy pol;
    pol.scheduler = SchedulerKind::kSerial;
    pol.encodingCache = &cache;
    std::vector<ExecutionResult> runs;
    for (const RuntimeInputs &in : ins)
        runs.push_back(exec.execute(in, pol));

    // Two distinct (data, scale, level) keys; the first run misses
    // both, every later run hits both.
    EXPECT_EQ(runs[0].encodingCacheMisses, 2u);
    EXPECT_EQ(runs[0].encodingCacheHits, 0u);
    for (size_t i = 1; i < kRuns; ++i) {
        EXPECT_EQ(runs[i].encodingCacheMisses, 0u);
        EXPECT_EQ(runs[i].encodingCacheHits, 2u);
    }

    // Cached encodings are bit-identical to uncached runs.
    ExecutionPolicy noCache;
    noCache.scheduler = SchedulerKind::kSerial;
    for (size_t i = 0; i < kRuns; ++i)
        expectIdenticalOutputs(exec.execute(ins[i], noCache), runs[i]);
}

//
// Admission control (consumes the metrics registry, not private state)
//

TEST(AdmissionControllerTest, DecidesFromRegistrySnapshot)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.reset();
    AdmissionLimits lim;
    lim.maxBacklog = 10;
    AdmissionController ctl(lim);
    TenantPolicy tp;

    // Stage registry state below the cap: admit.
    reg.counter("serving.jobs_submitted").inc(9);
    EXPECT_TRUE(ctl.decide("", tp, 0).admit);

    // Stage a backlog exactly at the cap: shed, naming the counters.
    reg.counter("serving.jobs_submitted").inc(21); // 30 submitted
    reg.counter("serving.jobs_completed").inc(15);
    reg.counter("serving.jobs_failed").inc(5); // backlog = 10
    auto d = ctl.decide("", tp, 0);
    EXPECT_FALSE(d.admit);
    EXPECT_NE(d.reason.find("backlog"), std::string::npos);

    // Completions observed through the registry re-open admission —
    // the controller tracks the registry, not its own counters.
    reg.counter("serving.jobs_completed").inc(1); // backlog = 9
    EXPECT_TRUE(ctl.decide("", tp, 0).admit);

    // Latency shedding reads the serving.queue_ms histogram's p95.
    AdmissionLimits lat;
    lat.maxQueueP95Ms = 5;
    AdmissionController latCtl(lat);
    EXPECT_TRUE(latCtl.decide("", tp, 0).admit); // no observations yet
    for (int i = 0; i < 100; ++i)
        reg.histogram("serving.queue_ms").observe(50.0);
    auto dl = latCtl.decide("", tp, 0);
    EXPECT_FALSE(dl.admit);
    EXPECT_NE(dl.reason.find("p95"), std::string::npos);

    // Per-tenant depth cap, from an explicit (empty) snapshot.
    TenantPolicy capped;
    capped.maxQueueDepth = 2;
    EXPECT_TRUE(ctl.decide(obs::MetricsSnapshot{}, "", capped, 1).admit);
    EXPECT_FALSE(
        ctl.decide(obs::MetricsSnapshot{}, "", capped, 2).admit);
    reg.reset();
}

TEST(ServingEngineTest, ShedsWhenRegistryBacklogOverLimit)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.reset();
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.admission.maxBacklog = 5;
    ServingEngine engine(&bgv, cfg);

    // Stage a fleet backlog in the registry, as if sibling engines
    // held 50 queued jobs; this engine must shed without enqueuing.
    reg.counter("serving.jobs_submitted").inc(50);
    JobRequest req;
    req.program = &p;
    EXPECT_THROW(engine.submit(std::move(req)), AdmissionRejected);
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("serving.shed_jobs"), 1u);
    // Only the staged submissions: the shed job was never enqueued.
    EXPECT_EQ(snap.counters.at("serving.jobs_submitted"), 50u);

    // Completions drain the staged backlog: the engine admits again.
    reg.counter("serving.jobs_completed").inc(50);
    JobRequest ok;
    ok.program = &p;
    ok.inputs.seed = 3;
    engine.submit(std::move(ok)).get();
    EXPECT_EQ(counterNow("serving.jobs_completed"), 51u);
    reg.reset();
}

TEST(ServingEngineTest, QueueDepthGaugesInRegistry)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    ServingConfig cfg;
    cfg.workers = 2;
    ServingEngine engine(&bgv, cfg);

    std::vector<std::future<JobResult>> futs;
    for (uint64_t i = 0; i < 6; ++i) {
        JobRequest req;
        req.program = &p;
        req.inputs.seed = i;
        futs.push_back(engine.submit(std::move(req)));
    }
    engine.drain();

    auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counters.at("serving.queue_depth"), 0u);
    EXPECT_GE(snap.counters.at("serving.queue_depth_peak"), 1u);
    EXPECT_LE(snap.counters.at("serving.queue_depth_peak"), 6u);
    for (auto &f : futs)
        f.get();
}

//
// Served jobs against solo execution
//

/** Long mul chain: keeps a worker busy long enough for submits to
 *  queue up behind it (deterministic-output, timing-only helper). */
Program
heavyProgram(int muls)
{
    Program p(256, 8, "heavy");
    int x = p.input();
    int acc = p.mul(x, x);
    for (int i = 1; i < muls; ++i)
        acc = p.mul(acc, x);
    p.output(acc);
    return p;
}

TEST(ServingEngineTest, ServedMatchesSoloAcrossWorkersBgv)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();

    constexpr size_t kJobs = 10;
    std::vector<ExecutionResult> isolated;
    for (size_t i = 0; i < kJobs; ++i) {
        RuntimeInputs in;
        in.seed = 1000 + i;
        OpGraphExecutor exec(p, &bgv);
        isolated.push_back(exec.execute(in));
    }

    for (unsigned workers : {1u, 2u, 4u}) {
        ServingConfig cfg;
        cfg.workers = workers;
        cfg.tenantPolicies["gold"] = {2, 20.0, 0};
        cfg.tenantPolicies["bulk"] = {0, 500.0, 0};
        ServingEngine engine(&bgv, cfg);
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < kJobs; ++i) {
            JobRequest req;
            req.program = &p;
            req.tenant = i % 2 ? "gold" : "bulk";
            req.inputs.seed = 1000 + i;
            futs.push_back(engine.submit(std::move(req)));
        }
        for (size_t i = 0; i < kJobs; ++i) {
            JobResult r = futs[i].get();
            expectIdenticalOutputs(isolated[i], r.exec);
            EXPECT_EQ(r.exec.batchSize, 1u);
        }
    }
}

TEST(ServingEngineTest, ServedMatchesSoloAcrossWorkersCkks)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-pipeline");
    int x = p.input();
    int w = p.inputPlain();
    int a = p.mulPlain(x, w);
    int r = p.modSwitch(a);
    p.output(p.add(p.rotate(r, 1), r));

    std::vector<std::complex<double>> weights(128);
    for (size_t i = 0; i < 128; ++i)
        weights[i] = {0.125 * double(i % 7), 0.0};

    constexpr size_t kJobs = 8;
    std::vector<ExecutionResult> isolated;
    for (size_t i = 0; i < kJobs; ++i) {
        RuntimeInputs in;
        in.seed = 2000 + i;
        in.bind(w, weights);
        OpGraphExecutor exec(p, &ckks);
        isolated.push_back(exec.execute(in));
    }

    for (unsigned workers : {1u, 2u, 4u}) {
        ServingConfig cfg;
        cfg.workers = workers;
        ServingEngine engine(&ckks, cfg);
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < kJobs; ++i) {
            JobRequest req;
            req.program = &p;
            req.tenant = i % 2 ? "even" : "odd";
            req.inputs.seed = 2000 + i;
            req.inputs.bind(w, weights);
            futs.push_back(engine.submit(std::move(req)));
        }
        for (size_t i = 0; i < kJobs; ++i)
            expectIdenticalOutputs(isolated[i], futs[i].get().exec);
    }
}

TEST(ServingEngineTest, OneTenantsBadJobFailsOnlyThatJob)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.reset();
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program slow = heavyProgram(60);
    Program p = chainProgram();

    constexpr uint64_t kClean = 6;
    std::vector<ExecutionResult> solo;
    for (uint64_t i = 0; i < kClean; ++i) {
        RuntimeInputs in;
        in.seed = 5000 + i;
        solo.push_back(OpGraphExecutor(p, &bgv).execute(in));
    }

    ServingConfig cfg;
    cfg.workers = 1;
    // A deadline no healthy job can miss: a clean deadline miss can
    // only come from another tenant's failure.
    cfg.tenantPolicies["clean"] = {0, 600000.0, 0};
    ServingEngine engine(&bgv, cfg);

    // The slow job holds the one worker, so every job below is queued
    // at once, all on the same program.
    JobRequest block;
    block.program = &slow;
    block.tenant = "blocker";
    auto blockFut = engine.submit(std::move(block));

    auto cleanJob = [&](uint64_t i) {
        JobRequest req;
        req.program = &p;
        req.tenant = "clean";
        req.inputs.seed = 5000 + i;
        return engine.submit(std::move(req));
    };
    std::vector<std::future<JobResult>> clean;
    for (uint64_t i = 0; i < kClean / 2; ++i)
        clean.push_back(cleanJob(i));
    // CKKS slot data bound into a BGV program: fails in prepare.
    JobRequest bad;
    bad.program = &p;
    bad.tenant = "hostile";
    bad.inputs.bind(0, std::vector<std::complex<double>>(128));
    auto badFut = engine.submit(std::move(bad));
    for (uint64_t i = kClean / 2; i < kClean; ++i)
        clean.push_back(cleanJob(i));

    EXPECT_THROW(badFut.get(), FatalError);
    EXPECT_NO_THROW(blockFut.get());
    for (uint64_t i = 0; i < kClean; ++i) {
        JobResult r;
        ASSERT_NO_THROW(r = clean[i].get()) << "clean job " << i;
        expectIdenticalOutputs(solo[i], r.exec);
    }
    EXPECT_EQ(counterNow("serving.jobs_failed"), 1u);
    EXPECT_EQ(counterNow("slo.hostile.deadline_misses"), 1u);
    const auto snap = reg.snapshot();
    ASSERT_TRUE(snap.counters.count("slo.clean.deadline_misses"));
    EXPECT_EQ(snap.counters.at("slo.clean.deadline_misses"), 0u);
    reg.reset();
}

TEST(ServingEngineTest, DrainWithSlowJobInFlight)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program lead = heavyProgram(60);
    Program light = diamondProgram();

    ServingConfig cfg;
    cfg.workers = 1; // one worker: the lead job serializes pickup
    ServingEngine engine(&bgv, cfg);
    const auto batches0 = histogramNow("serving.batch_size");

    JobRequest first;
    first.program = &lead;
    auto leadFut = engine.submit(std::move(first));

    // These queue up while the worker grinds the lead job.
    std::vector<std::future<JobResult>> futs;
    for (uint64_t i = 0; i < 6; ++i) {
        JobRequest req;
        req.program = &light;
        req.inputs.seed = 3000 + i;
        futs.push_back(engine.submit(std::move(req)));
    }

    engine.drain(); // must cover the slow execution

    using namespace std::chrono_literals;
    ASSERT_EQ(leadFut.wait_for(0s), std::future_status::ready);
    for (size_t i = 0; i < futs.size(); ++i) {
        ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready)
            << "drain() returned with job " << i << " unfinished";
        JobResult r = futs[i].get();
        EXPECT_EQ(r.exec.batchSize, 1u);
        RuntimeInputs in;
        in.seed = 3000 + i;
        OpGraphExecutor exec(light, &bgv);
        expectIdenticalOutputs(exec.execute(in), r.exec);
    }
    // serving.batch_size observes 1 per job.
    const auto batches = histogramNow("serving.batch_size");
    EXPECT_EQ(batches.count - batches0.count, 7u);
    EXPECT_EQ(batches.sum - batches0.sum, 7.0);
}

TEST(ServingEngineTest, SubmitWhileDestructingIsRejected)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program slow = heavyProgram(40);

    ServingConfig cfg;
    cfg.workers = 1; // the backlog drains one by one
    auto *engine = new ServingEngine(&bgv, cfg);

    // A deep backlog of slow jobs keeps the destructor inside
    // drain() for a long window after it closes admission.
    std::vector<std::future<JobResult>> backlog;
    for (uint64_t i = 0; i < 12; ++i) {
        JobRequest req;
        req.program = &slow;
        req.inputs.seed = i;
        backlog.push_back(engine->submit(std::move(req)));
    }

    std::thread destroyer([&] { delete engine; });
    // Poll submit until the destructor flips accepting_; everything
    // accepted in the window must still resolve before teardown. The
    // pause after each accepted submit leaves the destroyer the CPU
    // and the engine lock: a tight loop under CPU contention piles up
    // a thousand heavy jobs before admission closes, and the drain
    // then takes tens of seconds.
    std::vector<std::future<JobResult>> accepted;
    bool rejected = false;
    while (!rejected) {
        JobRequest req;
        req.program = &slow;
        req.inputs.seed = 100 + accepted.size();
        try {
            accepted.push_back(engine->submit(std::move(req)));
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        } catch (const FatalError &) {
            rejected = true;
        }
    }
    destroyer.join();
    EXPECT_TRUE(rejected);

    using namespace std::chrono_literals;
    for (auto &f : backlog) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        f.get();
    }
    for (auto &f : accepted) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
            << "an accepted job was not drained before teardown";
        f.get();
    }
}

TEST(ServingEngineTest, TenantQueueDepthCapSheds)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program slow = heavyProgram(40);

    ServingConfig cfg;
    cfg.workers = 1;
    cfg.tenantPolicies["capped"] = {0, 1000.0, /*maxQueueDepth=*/2};
    ServingEngine engine(&bgv, cfg);
    const uint64_t shed0 = counterNow("serving.shed_jobs");

    // Flood the capped tenant. The worker can hold at most one job in
    // flight, so by the pigeonhole principle the tenant's queue is at
    // its cap well before the last submit: some submit must shed.
    std::vector<std::future<JobResult>> futs;
    size_t shed = 0;
    for (uint64_t i = 0; i < 16; ++i) {
        JobRequest req;
        req.program = &slow;
        req.tenant = "capped";
        req.inputs.seed = i;
        try {
            futs.push_back(engine.submit(std::move(req)));
        } catch (const AdmissionRejected &) {
            ++shed;
        }
    }
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(counterNow("serving.shed_jobs") - shed0, shed);
    for (auto &f : futs)
        f.get();
    // Cap 2 + pickup race.
    EXPECT_LE(counterNow("serving.queue_depth_peak"), 3u);
}

} // namespace
} // namespace f1
