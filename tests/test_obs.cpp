/**
 * @file
 * Observability tests: metrics registry semantics (counters,
 * histograms, summed gauges, JSON export), bit-stable counting across
 * thread counts, the scratch/cache shims over the registry, per-op
 * trace export (valid JSON, span count == executed ops, per-lane
 * nesting, predicted-vs-actual start cycles), per-job execution
 * profiles, the telemetry-off contract (no artifacts produced),
 * end-to-end trace-id correlation (serving lifecycle -> executor
 * spans -> profile, with Perfetto flow events), the schedule-
 * calibration accumulator, the dropped-telemetry metrics, and a
 * concurrent scrape-under-load stress.
 *
 * This suite runs under TSan in CI alongside test_parallel and
 * test_runtime: the registry, collector, tracer, live-capture ring,
 * and exporter read paths are all concurrent by design.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/scratch.h"
#include "compiler/compiler.h"
#include "json_lint.h"
#include "obs/calib.h"
#include "obs/eventlog.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/tracectx.h"
#include "runtime/op_graph_executor.h"
#include "runtime/serving.h"

namespace f1 {
namespace {

using testing::isValidJson;

//
// Metrics registry
//

TEST(MetricsRegistryTest, CountersAccumulateAndSnapshot)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::Counter &c = reg.counter("obs_test.counter_a");
    const uint64_t before = c.value();
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), before + 42);
    // Same name resolves to the same counter.
    EXPECT_EQ(&reg.counter("obs_test.counter_a"), &c);

    auto snap = reg.snapshot();
    ASSERT_TRUE(snap.counters.count("obs_test.counter_a"));
    EXPECT_EQ(snap.counters["obs_test.counter_a"], c.value());
}

TEST(MetricsRegistryTest, HistogramBucketsAndQuantiles)
{
    auto &reg = obs::MetricsRegistry::global();
    const double bounds[] = {1.0, 10.0, 100.0};
    obs::Histogram &h = reg.histogram("obs_test.hist", bounds);
    h.reset();
    for (int i = 0; i < 90; ++i)
        h.observe(0.5); // first bucket
    for (int i = 0; i < 9; ++i)
        h.observe(5.0); // second bucket
    h.observe(1000.0);  // overflow bucket

    auto s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    ASSERT_EQ(s.counts.size(), 4u);
    EXPECT_EQ(s.counts[0], 90u);
    EXPECT_EQ(s.counts[1], 9u);
    EXPECT_EQ(s.counts[2], 0u);
    EXPECT_EQ(s.counts[3], 1u);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.95), 10.0);
    EXPECT_NEAR(s.sum, 90 * 0.5 + 9 * 5.0 + 1000.0, 1e-3);
}

TEST(MetricsRegistryTest, SameNameGaugesAreSummed)
{
    auto &reg = obs::MetricsRegistry::global();
    uint64_t a = 3, b = 4;
    auto ga = reg.gauge("obs_test.gauge", [&] { return a; });
    auto gb = reg.gauge("obs_test.gauge", [&] { return b; });
    auto snap = reg.snapshot();
    ASSERT_TRUE(snap.counters.count("obs_test.gauge"));
    EXPECT_EQ(snap.counters["obs_test.gauge"], 7u);
}

TEST(MetricsRegistryTest, GaugeUnregistersOnHandleDestruction)
{
    auto &reg = obs::MetricsRegistry::global();
    {
        uint64_t v = 9;
        auto g = reg.gauge("obs_test.transient_gauge",
                           [&] { return v; });
        EXPECT_EQ(reg.snapshot().counters.count(
                      "obs_test.transient_gauge"),
                  1u);
    }
    EXPECT_EQ(
        reg.snapshot().counters.count("obs_test.transient_gauge"),
        0u);
}

TEST(MetricsRegistryTest, SnapshotExportsValidJson)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.counter("obs_test.json \"quoted\"\\name").inc();
    reg.histogram("obs_test.json_hist").observe(0.42);
    std::string why;
    const std::string json = reg.snapshot().toJson();
    EXPECT_TRUE(isValidJson(json, &why)) << why << "\n" << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, CountersBitStableAcrossThreadCounts)
{
    auto &reg = obs::MetricsRegistry::global();
    for (unsigned threads : {1u, 2u, 8u}) {
        obs::Counter &c = reg.counter(
            "obs_test.stable_" + std::to_string(threads));
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < threads; ++t) {
            ts.emplace_back([&c] {
                for (int i = 0; i < 10000; ++i)
                    c.inc();
            });
        }
        for (auto &t : ts)
            t.join();
        // Relaxed atomics lose no increments: the total is exact, not
        // approximate, whatever the interleaving.
        EXPECT_EQ(c.value(), threads * 10000u);
    }
}

//
// Shims over the registry
//

TEST(ObsShimTest, ScratchStatsReadTheRegistry)
{
    ScratchArena::resetStats();
    const auto snap0 = obs::MetricsRegistry::global().snapshot();
    {
        auto h = ScratchArena::u32(512);
        h[0] = 1;
    }
    const auto stats = ScratchArena::stats();
    EXPECT_GE(stats.checkouts, 1u);
    const auto snap = obs::MetricsRegistry::global().snapshot();
    ASSERT_TRUE(snap.counters.count("scratch.checkouts"));
    EXPECT_EQ(snap.counters.at("scratch.checkouts"),
              stats.checkouts);
    EXPECT_EQ(snap.counters.at("scratch.heap_allocs"),
              stats.heapAllocs);
    EXPECT_GT(snap.counters.at("scratch.checkouts"),
              snap0.counters.at("scratch.checkouts"));
}

TEST(ObsShimTest, NamedCacheRegistersGauges)
{
    auto snapCount = [](const std::string &key) {
        auto s = obs::MetricsRegistry::global().snapshot();
        auto it = s.counters.find(key);
        return it == s.counters.end() ? uint64_t(0) : it->second;
    };
    {
        LruCache<int, int> cache(8, "obs_test_cache");
        cache.put(1, 10);
        (void)cache.get(1); // hit
        (void)cache.get(2); // miss
        EXPECT_EQ(snapCount("cache.obs_test_cache.hits"), 1u);
        EXPECT_EQ(snapCount("cache.obs_test_cache.misses"), 1u);
        EXPECT_EQ(snapCount("cache.obs_test_cache.size"), 1u);
        // The per-instance shim agrees with the gauges.
        EXPECT_EQ(cache.stats().hits, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
    }
    // Gauges unregister with the cache.
    auto s = obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(s.counters.count("cache.obs_test_cache.hits"), 0u);
}

//
// Execution profiles and traces
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

Program
diamondProgram()
{
    Program p(256, 8, "obs-diamond");
    int x = p.input();
    int y = p.input();
    int w = p.inputPlain();
    int a = p.mul(x, y);
    int b = p.rotate(x, 1);
    int c = p.mulPlain(y, w);
    int d = p.add(a, c);
    int e = p.sub(d, b);
    int f = p.modSwitch(e);
    p.output(f);
    p.output(b);
    return p;
}

size_t
nonSourceOps(const Program &p)
{
    size_t n = 0;
    for (const HeOp &op : p.ops())
        if (op.kind != HeOpKind::kInput &&
            op.kind != HeOpKind::kInputPlain)
            ++n;
    return n;
}

TEST(TelemetryTest, OffByDefaultProducesNoArtifacts)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);

    auto res = exec.execute({}, {});
    EXPECT_EQ(res.profile, nullptr);
    EXPECT_EQ(res.trace, nullptr);
    EXPECT_EQ(res.opsExecuted, nonSourceOps(p));
}

TEST(TelemetryTest, StatsConsistentAcrossSchedulers)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 23;

    for (unsigned threads : {1u, 2u, 8u}) {
        setGlobalThreadCount(threads);
        for (auto kind :
             {SchedulerKind::kSerial, SchedulerKind::kWorkStealing}) {
            ExecutionPolicy pol;
            pol.scheduler = kind;
            auto res = exec.execute(in, pol);
            EXPECT_EQ(res.opsExecuted, nonSourceOps(p));
            EXPECT_GT(res.peakResidentCiphertexts, 0u);
            EXPECT_EQ(res.batchSize, 1u);
            if (kind == SchedulerKind::kSerial) {
                EXPECT_EQ(res.peakOpsInFlight, 1u);
                EXPECT_EQ(res.steals, 0u);
            } else {
                EXPECT_GE(res.peakOpsInFlight, 1u);
                EXPECT_LE(res.peakOpsInFlight, threads);
                EXPECT_LE(res.steals, res.opsExecuted);
            }
        }
    }
    setGlobalThreadCount(0);
}

TEST(TelemetryTest, ProfileCountsHotPathWork)
{
    // GHS key-switching exercises the basis-extension hot path; it
    // needs auxiliary extension primes covering the hint level.
    FheParams params = smallParams();
    params.auxCount = params.maxLevel;
    FheContext ctx(params);
    BgvScheme bgv(&ctx, 0, KeySwitchVariant::kGhsExtension);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 29;

    ExecutionPolicy pol;
    pol.telemetry.profile = true;
    pol.telemetry.label = "unit";
    auto res = exec.execute(in, pol);

    ASSERT_NE(res.profile, nullptr);
    const obs::ExecutionProfile &prof = *res.profile;
    EXPECT_EQ(prof.label, "unit");
    // The diamond has a mul and a rotate: both key-switch, which
    // basis-extends and runs NTTs.
    EXPECT_GT(prof.keySwitchApplies, 0u);
    EXPECT_GT(prof.basisExtends, 0u);
    EXPECT_GT(prof.nttForward, 0u);
    EXPECT_GT(prof.nttInverse, 0u);
    EXPECT_GT(prof.scratchPeakWords, 0);
    EXPECT_GT(prof.executeMs, 0.0);

    // Every executed op kind shows up with the right multiplicity.
    std::map<std::string, uint64_t> expected;
    for (const HeOp &op : p.ops()) {
        switch (op.kind) {
          case HeOpKind::kInput:
          case HeOpKind::kInputPlain:
            break;
          case HeOpKind::kMul: ++expected["mul"]; break;
          case HeOpKind::kRotate: ++expected["rotate"]; break;
          case HeOpKind::kMulPlain: ++expected["mul_plain"]; break;
          case HeOpKind::kAdd: ++expected["add"]; break;
          case HeOpKind::kSub: ++expected["sub"]; break;
          case HeOpKind::kModSwitch: ++expected["mod_switch"]; break;
          case HeOpKind::kOutput: ++expected["output"]; break;
          default: break;
        }
    }
    uint64_t total = 0;
    for (const auto &[name, want] : expected) {
        auto it = prof.opKinds.find(name);
        ASSERT_NE(it, prof.opKinds.end()) << name;
        EXPECT_EQ(it->second.count, want) << name;
        total += it->second.count;
    }
    EXPECT_EQ(total, res.opsExecuted);

    std::string why;
    EXPECT_TRUE(isValidJson(prof.toJson(), &why)) << why;
}

TEST(TelemetryTest, ProfileCountersBitStableAcrossSchedulers)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 31;

    // Warm the hint cache so every profiled run sees the same cache
    // state (hint generation itself runs NTTs).
    exec.execute(in, {});

    auto profiled = [&](SchedulerKind kind, unsigned threads) {
        setGlobalThreadCount(threads);
        ExecutionPolicy pol;
        pol.scheduler = kind;
        pol.telemetry.profile = true;
        auto res = exec.execute(in, pol);
        setGlobalThreadCount(0);
        return res.profile;
    };

    auto ref = profiled(SchedulerKind::kSerial, 1);
    ASSERT_NE(ref, nullptr);
    for (auto kind :
         {SchedulerKind::kSerial, SchedulerKind::kWorkStealing}) {
        for (unsigned threads : {1u, 2u, 8u}) {
            auto prof = profiled(kind, threads);
            ASSERT_NE(prof, nullptr);
            // Hot-path work is a function of the program alone —
            // identical counts for every scheduler x thread count.
            EXPECT_EQ(prof->nttForward, ref->nttForward);
            EXPECT_EQ(prof->nttInverse, ref->nttInverse);
            EXPECT_EQ(prof->keySwitchApplies,
                      ref->keySwitchApplies);
            EXPECT_EQ(prof->basisExtends, ref->basisExtends);
            for (const auto &[name, slice] : ref->opKinds) {
                auto it = prof->opKinds.find(name);
                ASSERT_NE(it, prof->opKinds.end()) << name;
                EXPECT_EQ(it->second.count, slice.count) << name;
            }
        }
    }
}

TEST(TelemetryTest, TraceExportsPerfettoJson)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 37;

    setGlobalThreadCount(4);
    ExecutionPolicy pol;
    pol.scheduler = SchedulerKind::kWorkStealing;
    pol.scheduleHints = &hints;
    pol.telemetry.trace = true;
    pol.telemetry.label = "trace-test";
    auto res = exec.execute(in, pol);
    setGlobalThreadCount(0);

    ASSERT_NE(res.trace, nullptr);
    const obs::Trace &trace = *res.trace;

    // One span per executed op, nothing dropped at this scale.
    EXPECT_EQ(trace.spanCount(), res.opsExecuted);
    EXPECT_EQ(trace.droppedEvents(), 0u);
    EXPECT_GE(trace.laneCount(), 1u);
    EXPECT_EQ(trace.label(), "trace-test");

    // Spans are well-nested per lane: a worker runs ops sequentially,
    // so spans in one lane never overlap.
    std::map<uint16_t, int64_t> laneEnd;
    for (const obs::TraceEvent &ev : trace.events()) {
        if (ev.kind != obs::TraceEventKind::kOpSpan)
            continue;
        auto [it, fresh] = laneEnd.try_emplace(ev.lane, 0);
        if (!fresh)
            EXPECT_GE(ev.tsNs, it->second)
                << "overlapping spans in lane " << ev.lane;
        it->second = ev.tsNs + ev.durNs;
        // Hinted runs stamp the compiler's predicted start cycle.
        EXPECT_GE(ev.predictedCycle, 0);
        EXPECT_EQ(ev.predictedCycle,
                  int64_t(hints.startCycle[size_t(ev.handle)]));
    }

    const std::string json = trace.json();
    std::string why;
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"predicted_start_cycle\""),
              std::string::npos);
}

TEST(TelemetryTest, TraceRingDropsOldestAndReportsCount)
{
    // 16 is the tracer's minimum lane capacity.
    obs::Tracer tracer(/*laneCapacity=*/16, "tiny");
    for (int i = 0; i < 20; ++i)
        tracer.span("op", i, i * 100, 50, -1);
    obs::Trace trace = tracer.finish();
    EXPECT_EQ(trace.spanCount(), 16u);
    EXPECT_EQ(trace.droppedEvents(), 4u);
    // The survivors are the NEWEST events, in time order.
    ASSERT_EQ(trace.events().size(), 16u);
    EXPECT_EQ(trace.events().front().handle, 4);
    EXPECT_EQ(trace.events().back().handle, 19);
    std::string why;
    EXPECT_TRUE(isValidJson(trace.json(), &why)) << why;
}

TEST(TelemetryTest, ServingAttachesTenantLabeledProfiles)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.policy.telemetry.profile = true;
    ServingEngine engine(&bgv, cfg);

    JobRequest req;
    req.program = &p;
    req.tenant = "tenant-a";
    auto fut = engine.submit(std::move(req));
    JobResult res = fut.get();

    ASSERT_NE(res.exec.profile, nullptr);
    EXPECT_EQ(res.exec.profile->label, "tenant-a");
    EXPECT_GT(res.exec.profile->keySwitchApplies, 0u);
    // Serving totals also land in the registry.
    auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_GE(snap.counters.at("serving.jobs_completed"), 1u);
    ASSERT_TRUE(snap.histograms.count("serving.service_ms"));
    EXPECT_GE(snap.histograms.at("serving.service_ms").count, 1u);
}

//
// Correlated tracing (trace ids, flow events, live capture).
//

TEST(TraceIdTest, AllocationsAreUniqueAndNonZero)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::vector<std::vector<uint64_t>> got(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&got, t] {
            got[size_t(t)].reserve(kPerThread);
            for (int i = 0; i < kPerThread; ++i)
                got[size_t(t)].push_back(obs::allocateTraceId());
        });
    }
    for (auto &t : ts)
        t.join();
    std::set<uint64_t> all;
    for (const auto &v : got) {
        for (uint64_t id : v) {
            EXPECT_NE(id, 0u);
            all.insert(id);
        }
    }
    // Mixed-counter ids: no collisions even across threads.
    EXPECT_EQ(all.size(), size_t(kThreads) * kPerThread);
}

TEST(TraceIdTest, SpanCarriesTraceIdIntoJson)
{
    obs::Tracer tracer(/*laneCapacity=*/16, "tid");
    tracer.span("mul", 3, 100, 50, 7, 0x00c0ffee12345678ULL);
    tracer.span("add", 4, 200, 10, -1); // default arg: untraced
    obs::Trace trace = tracer.finish();
    ASSERT_EQ(trace.events().size(), 2u);
    EXPECT_EQ(trace.events()[0].traceId, 0x00c0ffee12345678ULL);
    EXPECT_EQ(trace.events()[1].traceId, 0u);

    const std::string json = trace.json();
    std::string why;
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    // Hex-string ids survive JSON round-trips at full 64-bit width.
    EXPECT_NE(json.find("\"trace_id\": \"0x00c0ffee12345678\""),
              std::string::npos);
}

TEST(CorrelationTest, ServingCorrelationEndToEnd)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.policy.telemetry.profile = true;
    cfg.policy.telemetry.trace = true;
    ServingEngine engine(&bgv, cfg);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 6; ++i) {
        JobRequest req;
        req.program = &p;
        req.tenant = i % 2 ? "corr-a" : "corr-b";
        req.inputs.seed = 100 + uint64_t(i);
        req.hints = &hints;
        futs.push_back(engine.submit(std::move(req)));
    }
    std::vector<JobResult> results;
    for (auto &f : futs)
        results.push_back(f.get());

    const std::vector<obs::ServingEvent> events =
        obs::FlightRecorder::global().dump();

    // Every completed job's trace id threads through all three
    // telemetry systems (the PR's acceptance bar).
    std::vector<std::shared_ptr<const obs::Trace>> traces;
    std::set<uint64_t> ids;
    for (const JobResult &r : results) {
        ASSERT_NE(r.traceId, 0u);
        ids.insert(r.traceId);

        size_t lifecycle = 0;
        for (const obs::ServingEvent &ev : events)
            if (ev.traceId == r.traceId)
                ++lifecycle;
        // At minimum submit, admit, and complete.
        EXPECT_GE(lifecycle, 3u) << "job " << r.jobId;

        ASSERT_NE(r.exec.trace, nullptr);
        size_t spans = 0;
        for (const obs::TraceEvent &ev : r.exec.trace->events())
            if (ev.kind == obs::TraceEventKind::kOpSpan &&
                ev.traceId == r.traceId)
                ++spans;
        EXPECT_GT(spans, 0u) << "job " << r.jobId;

        ASSERT_NE(r.exec.profile, nullptr);
        EXPECT_EQ(r.exec.profile->traceId, r.traceId)
            << "job " << r.jobId;
        EXPECT_EQ(r.exec.profile->label, r.tenant);
        traces.push_back(r.exec.trace);
    }
    EXPECT_EQ(ids.size(), results.size()); // pairwise distinct

    // The correlated document links every one of this test's jobs
    // from its lifecycle chain into its first executor span.
    std::ostringstream os;
    EXPECT_EQ(obs::writeCorrelatedTrace(os, traces, events),
              ids.size());
    const std::string json = os.str();
    std::string why;
    ASSERT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
    EXPECT_EQ(json, obs::correlatedTraceJson(traces, events));
}

TEST(CorrelationTest, LiveCaptureRecordsWhileArmed)
{
    obs::LiveTraceCapture cap(/*capacity=*/64);
    EXPECT_FALSE(cap.armed());
    cap.record(100, 10, "mul", 1, 7, -1); // disarmed: executor
                                          // wouldn't call, but the
                                          // ring still accepts
    cap.arm();
    ASSERT_TRUE(cap.armed());
    const int64_t t0 = 1000;
    for (int i = 0; i < 8; ++i)
        cap.record(t0 + i * 10, 5, "add", i, uint64_t(i + 1), i);
    cap.disarm();
    EXPECT_FALSE(cap.armed());

    auto spans = cap.spansSince(t0);
    ASSERT_EQ(spans.size(), 8u);
    for (size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].tsNs, t0 + int64_t(i) * 10);
        EXPECT_EQ(spans[i].handle, int32_t(i));
        EXPECT_EQ(spans[i].traceId, uint64_t(i + 1));
        EXPECT_EQ(spans[i].predictedCycle, int64_t(i));
        EXPECT_STREQ(spans[i].name, "add");
    }
    // The pre-window record is filtered by timestamp.
    EXPECT_EQ(cap.spansSince(0).size(), 9u);
}

//
// Schedule calibration.
//

TEST(CalibrationTest, RecoversSyntheticLinearFit)
{
    obs::ScheduleCalibration calib;
    // y = 3x + 500, exactly.
    for (int i = 0; i < 200; ++i)
        calib.record(2, "unit_kind", uint64_t(i),
                     int64_t(3 * i + 500));

    auto fits = calib.snapshot();
    ASSERT_EQ(fits.size(), 1u);
    EXPECT_EQ(fits[0].name, "unit_kind");
    EXPECT_EQ(fits[0].samples, 200u);
    EXPECT_NEAR(fits[0].slopeNsPerCycle, 3.0, 1e-6);
    EXPECT_NEAR(fits[0].interceptNs, 500.0, 1e-6);
    EXPECT_NEAR(fits[0].maeNs, 0.0, 1e-6);
    EXPECT_EQ(fits[0].retained, 200u);

    // The gauge mirrors publish into the registry (slope in milli).
    auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counters.at("calib.unit_kind.samples"), 200u);
    EXPECT_EQ(snap.counters.at("calib.unit_kind.slope_milli"), 3000u);
    EXPECT_EQ(snap.counters.at("calib.unit_kind.intercept_ns"), 500u);

    // Out-of-range kinds and null names are ignored, never fatal.
    calib.record(obs::ScheduleCalibration::kMaxKinds, "over", 1, 1);
    calib.record(3, nullptr, 1, 1);
    EXPECT_EQ(calib.snapshot().size(), 1u);

    std::string why;
    const std::string json = calib.toJson();
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_NE(json.find("\"slope_ns_per_cycle\""), std::string::npos);

    calib.reset();
    EXPECT_TRUE(calib.snapshot().empty());
}

TEST(CalibrationTest, ExecutorFeedsGlobalAccumulator)
{
    obs::ScheduleCalibration::global().reset();

    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 41;

    ExecutionPolicy pol;
    pol.scheduleHints = &hints;
    pol.telemetry.trace = true;
    for (int i = 0; i < 3; ++i)
        exec.execute(in, pol);

    // The diamond exercises 7 traced op kinds (mul, rotate,
    // mul_plain, add, sub, mod_switch, output) — over the >= 5 the
    // observatory is specified to fit.
    auto fits = obs::ScheduleCalibration::global().snapshot();
    EXPECT_EQ(fits.size(), 7u);
    EXPECT_GE(fits.size(), 5u);
    std::set<std::string> names;
    uint64_t total = 0;
    for (const auto &f : fits) {
        names.insert(f.name);
        total += f.samples;
        EXPECT_EQ(f.retained,
                  std::min<size_t>(
                      f.samples, obs::ScheduleCalibration::kRingCap));
    }
    EXPECT_EQ(names.size(), fits.size());
    // Solo runs: every executed op records one pair.
    EXPECT_EQ(total, 3 * nonSourceOps(p));

    std::string why;
    EXPECT_TRUE(isValidJson(
        obs::ScheduleCalibration::global().toJson(), &why))
        << why;
}

//
// Dropped-telemetry metrics (the observability of the observability).
//

TEST(DroppedMetricsTest, TraceRingDropCountsReachTheRegistry)
{
    obs::Counter &c =
        obs::MetricsRegistry::global().counter("trace.dropped_events");
    const uint64_t before = c.value();
    obs::Tracer tracer(/*laneCapacity=*/16, "drops");
    for (int i = 0; i < 20; ++i)
        tracer.span("op", i, i * 100, 50, -1);
    obs::Trace trace = tracer.finish();
    EXPECT_EQ(trace.droppedEvents(), 4u);
    EXPECT_EQ(c.value(), before + 4);
}

TEST(DroppedMetricsTest, EventlogDroppedGaugeCountsWraparound)
{
    auto gaugeVal = [] {
        auto s = obs::MetricsRegistry::global().snapshot();
        auto it = s.counters.find("eventlog.dropped");
        return it == s.counters.end() ? uint64_t(0) : it->second;
    };
    obs::FlightRecorder rec(/*capacity=*/8);
    const uint64_t before = gaugeVal();
    for (int i = 0; i < 13; ++i)
        rec.record(obs::ServingEventKind::kSubmit, uint64_t(i + 1),
                   "t");
    // 13 events into 8 slots: the 5 oldest are overwritten, and the
    // recorder's gauge (summed with the global recorder's) says so.
    EXPECT_EQ(gaugeVal(), before + 5);
    auto evs = rec.dump();
    ASSERT_EQ(evs.size(), 8u);
    EXPECT_EQ(evs.front().seq, 6u);
}

//
// Concurrent scrape-under-load stress (TSan target): exporter reads
// hammering /metrics, /tracez, and /calibration.json while batched
// serving runs — and job outputs stay bit-identical to solo runs.
//

std::vector<uint32_t>
ctWords(const Ciphertext &ct)
{
    std::vector<uint32_t> out;
    for (const auto &poly : ct.polys)
        out.insert(out.end(), poly.raw().begin(), poly.raw().end());
    return out;
}

TEST(CorrelationTest, ConcurrentScrapeStress)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    // Reference bits from an isolated, exporter-free execution.
    OpGraphExecutor ref(p, &bgv);
    RuntimeInputs in;
    in.seed = 77;
    const ExecutionResult refRes = ref.execute(in, {});

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.policy.telemetry.trace = true;
    cfg.policy.scheduleHints = &hints;
    ServingEngine engine(&bgv, cfg);

    obs::MetricsExporter exporter; // default sources, ephemeral port

    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    auto scraper = [&](const char *path, bool wantJson) {
        while (!stop.load(std::memory_order_relaxed)) {
            auto resp = exporter.handle(path);
            if (resp.status != 200) {
                bad.fetch_add(1);
                continue;
            }
            if (wantJson && !isValidJson(resp.body))
                bad.fetch_add(1);
        }
    };
    std::vector<std::thread> scrapers;
    scrapers.emplace_back(scraper, "/metrics", false);
    scrapers.emplace_back(scraper, "/tracez?ms=5", true);
    scrapers.emplace_back(scraper, "/calibration.json", true);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 12; ++i) {
        JobRequest req;
        req.program = &p;
        req.tenant = "stress";
        req.inputs.seed = 77;
        req.hints = &hints;
        futs.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futs) {
        JobResult r = f.get();
        // Live capture and concurrent scrapes never perturb outputs.
        ASSERT_EQ(r.exec.outputs.size(), refRes.outputs.size());
        for (const auto &[h, ct] : refRes.outputs) {
            auto it = r.exec.outputs.find(h);
            ASSERT_NE(it, r.exec.outputs.end());
            EXPECT_EQ(ctWords(ct), ctWords(it->second))
                << "output " << h << " diverged under scrape load";
        }
    }
    stop.store(true);
    for (auto &t : scrapers)
        t.join();
    EXPECT_EQ(bad.load(), 0);
    exporter.stop();
}

//
// JSON lint self-checks (the validator must not pass garbage).
//

TEST(JsonLintTest, AcceptsAndRejects)
{
    EXPECT_TRUE(isValidJson("{\"a\": [1, 2.5e-3, \"x\\n\", null]}"));
    EXPECT_TRUE(isValidJson("  [true, false] "));
    EXPECT_FALSE(isValidJson("{\"a\": }"));
    EXPECT_FALSE(isValidJson("[1,]"));
    EXPECT_FALSE(isValidJson("{\"a\": 01}"));
    EXPECT_FALSE(isValidJson("\"unterminated"));
    EXPECT_FALSE(isValidJson("{} trailing"));
    EXPECT_FALSE(isValidJson("{\"bad\\q\": 1}"));
}

} // namespace
} // namespace f1
