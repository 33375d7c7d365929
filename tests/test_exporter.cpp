/**
 * @file
 * Live-introspection tests: Prometheus text exposition (name
 * sanitization, per-tenant/per-cache label extraction, cumulative
 * _bucket/_sum/_count series, +Inf overflow markers on quantile
 * estimates), histogram overflow accounting, configurable quantile
 * sets, the embedded HTTP exporter end-to-end over real sockets,
 * per-tenant SLO window math and its registry gauges, burn-rate-driven
 * admission shedding (standalone and through a live ServingEngine),
 * burn-rate dispatch penalties (the scheduling tier below shedding),
 * the flight recorder's causal post-mortem of a failed job and its
 * trace-id round-trip, and the /calibration.json + /tracez?ms=N
 * live-introspection endpoints.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fhe/bgv.h"
#include "json_lint.h"
#include "obs/eventlog.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "runtime/serving.h"

namespace f1 {
namespace {

using testing::isValidJson;

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
chainProgram()
{
    Program p(256, 8, "exporter_chain");
    int x = p.input();
    int acc = x;
    for (int i = 0; i < 6; ++i)
        acc = p.add(acc, x);
    p.output(acc);
    return p;
}

bool
contains(const std::string &hay, const std::string &needle)
{
    return hay.find(needle) != std::string::npos;
}

/** A registry counter's current value (0 before first use). */
uint64_t
counterValue(const std::string &name)
{
    const auto snap = obs::MetricsRegistry::global().snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

//
// Prometheus rendering (the pure core).
//

TEST(PrometheusRenderTest, SanitizesMetricNames)
{
    EXPECT_EQ(obs::sanitizeMetricName("serving.queue_ms"),
              "serving_queue_ms");
    EXPECT_EQ(obs::sanitizeMetricName("a-b c!"), "a_b_c_");
    EXPECT_EQ(obs::sanitizeMetricName("9lives"), "_9lives");
    EXPECT_EQ(obs::sanitizeMetricName("ns::x"), "ns::x");
}

TEST(PrometheusRenderTest, EscapesLabelValues)
{
    EXPECT_EQ(obs::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(obs::escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::escapeLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusRenderTest, ScalarsHistogramsAndLabels)
{
    obs::MetricsSnapshot snap;
    snap.counters["serving.jobs_submitted"] = 5;
    snap.counters["slo.alice.burn_rate"] = 1500;
    snap.counters["slo.team.a.burn_rate"] = 700; // dotted tenant id
    snap.counters["cache.enc.hits"] = 2;

    obs::HistogramSnapshot h;
    h.bounds = {1.0, 2.0};
    h.counts = {1, 1, 1}; // one observation in the overflow bucket
    h.count = 3;
    h.sum = 103.5;
    h.quantiles = {0.5, 0.99};
    snap.histograms["serving.queue_ms"] = h;

    const std::string text = obs::renderPrometheus(snap);

    // Scalars render as gauges under the f1_ prefix.
    EXPECT_TRUE(
        contains(text, "# TYPE f1_serving_jobs_submitted gauge"));
    EXPECT_TRUE(contains(text, "f1_serving_jobs_submitted 5"));

    // slo.<tenant>.<leaf> aggregates under one family with a tenant
    // label — including tenant ids that themselves contain dots.
    EXPECT_TRUE(
        contains(text, "f1_slo_burn_rate{tenant=\"alice\"} 1500"));
    EXPECT_TRUE(
        contains(text, "f1_slo_burn_rate{tenant=\"team.a\"} 700"));
    EXPECT_FALSE(contains(text, "f1_slo_alice"));
    EXPECT_TRUE(contains(text, "f1_cache_hits{cache=\"enc\"} 2"));

    // The histogram is cumulative, closed by the +Inf bucket.
    EXPECT_TRUE(contains(text, "# TYPE f1_serving_queue_ms histogram"));
    EXPECT_TRUE(
        contains(text, "f1_serving_queue_ms_bucket{le=\"1\"} 1"));
    EXPECT_TRUE(
        contains(text, "f1_serving_queue_ms_bucket{le=\"2\"} 2"));
    EXPECT_TRUE(
        contains(text, "f1_serving_queue_ms_bucket{le=\"+Inf\"} 3"));
    EXPECT_TRUE(contains(text, "f1_serving_queue_ms_sum 103.5"));
    EXPECT_TRUE(contains(text, "f1_serving_queue_ms_count 3"));

    // Quantile estimates are a separate gauge family; an estimate in
    // the overflow bucket reads +Inf, never the last finite edge.
    EXPECT_TRUE(contains(
        text, "f1_serving_queue_ms_quantile{quantile=\"0.5\"}"));
    EXPECT_TRUE(contains(
        text,
        "f1_serving_queue_ms_quantile{quantile=\"0.99\"} +Inf"));

    // One # TYPE line per family, preceding all its samples.
    EXPECT_EQ(text.find("# TYPE f1_slo_burn_rate gauge"),
              text.rfind("# TYPE f1_slo_burn_rate gauge"));
}

//
// Histogram overflow accounting (satellite: top-bucket clamping fix).
//

TEST(HistogramOverflowTest, OverflowIsExplicitNotClamped)
{
    const double bounds[] = {1.0, 2.0};
    obs::Histogram h{std::span<const double>(bounds)};
    h.observe(0.5);
    h.observe(1.5);
    h.observe(100.0);

    obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.overflowCount(), 1u);

    // The median sits in a finite bucket; the p99 observation is the
    // 100.0 in the overflow bucket — flagged, not clamped to 2.0.
    EXPECT_FALSE(s.quantileAt(0.5).overflow);
    const obs::HistogramSnapshot::Quantile p99 = s.quantileAt(0.99);
    EXPECT_TRUE(p99.overflow);
    EXPECT_EQ(p99.value, 2.0); // last finite edge, as documented
}

TEST(HistogramOverflowTest, SnapshotJsonSurfacesOverflow)
{
    auto &reg = obs::MetricsRegistry::global();
    const double bounds[] = {1.0};
    obs::Histogram &h = reg.histogram("exporter_test.ovf", bounds);
    h.observe(50.0);

    const std::string json = reg.snapshot().toJson();
    std::string why;
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_TRUE(contains(json, "\"overflow\""));
}

//
// Configurable quantile sets (satellite).
//

TEST(QuantileConfigTest, PerHistogramQuantilesExtendSnapshotJson)
{
    auto &reg = obs::MetricsRegistry::global();
    const double bounds[] = {1.0, 10.0, 100.0};
    const double qs[] = {0.50, 0.95, 0.99};
    obs::Histogram &h =
        reg.histogram("exporter_test.q99", bounds, qs);
    for (int i = 0; i < 100; ++i)
        h.observe(double(i));

    obs::HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.quantiles.size(), 3u);
    EXPECT_DOUBLE_EQ(s.quantiles[2], 0.99);

    // The default p50/p95 keys survive unchanged; p99 is additive.
    const std::string json = reg.snapshot().toJson();
    std::string why;
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_TRUE(contains(json, "\"p50_ms\""));
    EXPECT_TRUE(contains(json, "\"p95_ms\""));
    EXPECT_TRUE(contains(json, "\"p99_ms\""));
}

TEST(QuantileConfigTest, ReRegistrationUpgradesQuantileSet)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::Histogram &h = reg.histogram("exporter_test.upgrade");
    EXPECT_EQ(h.quantiles().size(),
              obs::defaultQuantiles().size());

    const double qs[] = {0.50, 0.95, 0.999};
    obs::Histogram &same =
        reg.histogram("exporter_test.upgrade", {}, qs);
    EXPECT_EQ(&same, &h); // same histogram, upgraded in place
    ASSERT_EQ(h.quantiles().size(), 3u);
    EXPECT_DOUBLE_EQ(h.quantiles()[2], 0.999);
}

//
// SLO tracker window math and registry publication.
//

TEST(SloTrackerTest, WindowAttainmentAndBurnRate)
{
    obs::SloConfig cfg;
    cfg.windowSize = 4;
    cfg.targetAttainment = 0.9; // 10% error budget
    obs::SloTracker slo(cfg);

    // Two hits, two misses against a 10ms deadline.
    slo.recordJob("slo_t_win", 5.0, 10.0);
    slo.recordJob("slo_t_win", 5.0, 10.0);
    slo.recordJob("slo_t_win", 20.0, 10.0);
    slo.recordJob("slo_t_win", 20.0, 10.0);

    auto snap = slo.snapshot();
    ASSERT_TRUE(snap.count("slo_t_win"));
    const auto &s = snap.at("slo_t_win");
    EXPECT_EQ(s.total, 4u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.windowMisses, 2u);
    EXPECT_DOUBLE_EQ(s.attainment, 0.5);
    EXPECT_DOUBLE_EQ(s.burnRate, 5.0); // 0.5 missed / 0.1 budget

    // Four hits push the misses out of the window: the burn rate
    // recovers on its own (unlike cumulative-histogram admission).
    for (int i = 0; i < 4; ++i)
        slo.recordJob("slo_t_win", 1.0, 10.0);
    const auto after = slo.snapshot().at("slo_t_win");
    EXPECT_EQ(after.total, 8u);
    EXPECT_EQ(after.misses, 2u); // lifetime counter keeps history
    EXPECT_EQ(after.windowMisses, 0u);
    EXPECT_DOUBLE_EQ(after.attainment, 1.0);
    EXPECT_DOUBLE_EQ(after.burnRate, 0.0);

    // No deadline (<= 0) means every job counts as met.
    slo.recordJob("slo_t_nodeadline", 1e9, 0.0);
    EXPECT_DOUBLE_EQ(
        slo.snapshot().at("slo_t_nodeadline").attainment, 1.0);

    std::string why;
    EXPECT_TRUE(isValidJson(slo.toJson(), &why)) << why;
}

TEST(SloTrackerTest, PublishesScaledRegistryGauges)
{
    obs::SloConfig cfg;
    cfg.windowSize = 4;
    cfg.targetAttainment = 0.99;
    obs::SloTracker slo(cfg);
    slo.recordJob("slo_t_gauge", 5.0, 10.0);
    slo.recordJob("slo_t_gauge", 50.0, 10.0);

    auto snap = obs::MetricsRegistry::global().snapshot();
    // Attainment in basis points, burn rate in milli-units.
    EXPECT_EQ(snap.counters.at("slo.slo_t_gauge.attainment"), 5000u);
    EXPECT_EQ(snap.counters.at("slo.slo_t_gauge.burn_rate"), 50000u);
    EXPECT_EQ(snap.counters.at("slo.slo_t_gauge.deadline_misses"),
              1u);
}

//
// Burn-rate admission (standalone controller).
//

TEST(AdmissionBurnRateTest, ShedsOnSloBurnRateMetric)
{
    AdmissionLimits lim;
    lim.maxBurnRate = 2.0;
    AdmissionController ctl(lim);
    TenantPolicy tp;

    obs::MetricsSnapshot snap;
    snap.counters["slo.bob.burn_rate"] = 5000; // 5.0x budget burn

    auto hot = ctl.decide(snap, "bob", tp, 0);
    EXPECT_FALSE(hot.admit);
    EXPECT_TRUE(contains(hot.reason, "burn"));
    EXPECT_TRUE(contains(hot.reason, "slo.bob.burn_rate"));

    // Below threshold, an unknown tenant, or an empty tenant name
    // (burn-rate check skipped) all admit.
    snap.counters["slo.bob.burn_rate"] = 1500;
    EXPECT_TRUE(ctl.decide(snap, "bob", tp, 0).admit);
    EXPECT_TRUE(ctl.decide(snap, "carol", tp, 0).admit);
    snap.counters["slo.bob.burn_rate"] = 5000;
    EXPECT_TRUE(ctl.decide(snap, "", tp, 0).admit);
}

//
// Acceptance: SLO metrics drive a live engine's shed decision.
//

TEST(ServingEngineSloTest, BurnRateFromMissedDeadlinesShedsTenant)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.reset();
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = chainProgram();

    ServingConfig cfg;
    cfg.workers = 1;
    cfg.admission.maxBurnRate = 2.0;
    cfg.slo.windowSize = 8;
    cfg.slo.targetAttainment = 0.99;
    // A deadline no real execution can meet: every completed job is
    // a deadline miss, so the tenant burns its error budget at 100x.
    TenantPolicy impossible;
    impossible.deadlineMs = 1e-6;
    cfg.tenantPolicies["slo_hot"] = impossible;
    ServingEngine engine(&bgv, cfg);

    auto makeReq = [&](uint64_t seed) {
        JobRequest req;
        req.program = &p;
        req.tenant = "slo_hot";
        req.inputs.seed = seed;
        return req;
    };

    // First job completes (admission sees no SLO history yet) and
    // records a miss, driving slo.slo_hot.burn_rate to the cap.
    engine.submit(makeReq(1)).get();
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("slo.slo_hot.deadline_misses"), 1u);
    EXPECT_GE(snap.counters.at("slo.slo_hot.burn_rate"), 2000u);

    // The next submit is shed BY the SLO metric, not by backlog.
    EXPECT_THROW(engine.submit(makeReq(2)), AdmissionRejected);
    EXPECT_EQ(reg.snapshot().counters.at("serving.shed_jobs"), 1u);

    // Other tenants are untouched: burn rates are per tenant.
    JobRequest ok;
    ok.program = &p;
    ok.tenant = "slo_cold";
    ok.inputs.seed = 3;
    engine.submit(std::move(ok)).get();
    EXPECT_EQ(counterValue("serving.jobs_completed"), 2u);
    reg.reset();
}

//
// Flight recorder.
//

TEST(FlightRecorderTest, OrderingWraparoundAndTruncation)
{
    obs::FlightRecorder rec(8);
    for (uint64_t i = 1; i <= 20; ++i)
        rec.record(obs::ServingEventKind::kSubmit, i, "tenant", i, 1);

    EXPECT_EQ(rec.capacity(), 8u);
    EXPECT_EQ(rec.recorded(), 20u);
    auto events = rec.dump();
    ASSERT_EQ(events.size(), 8u);
    // The newest 8 survive, in causal order; seq is 1-based.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 13 + i);
        EXPECT_EQ(events[i].jobId, 13 + i);
        EXPECT_EQ(events[i].fingerprint, 13 + i);
        EXPECT_EQ(events[i].tenant, "tenant");
    }

    // Tenant ids longer than the slot budget are truncated, never
    // spilled into neighboring fields.
    rec.record(obs::ServingEventKind::kShed, 99,
               "a_tenant_name_well_past_twentyfour_bytes", 7, 2);
    auto last = rec.dump().back();
    EXPECT_EQ(last.tenant.size(), obs::FlightRecorder::kTenantBytes);
    EXPECT_EQ(last.tenant,
              std::string("a_tenant_name_well_past_twentyfour_bytes")
                  .substr(0, obs::FlightRecorder::kTenantBytes));
    EXPECT_EQ(last.jobId, 99u);
    EXPECT_EQ(last.batchSize, 2u);
    EXPECT_EQ(last.kind, obs::ServingEventKind::kShed);

    std::string why;
    const std::string json = rec.dumpJson();
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_TRUE(contains(json, "\"dropped\": 13"));
}

TEST(FlightRecorderTest, FailedJobLeavesCausalSequence)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = chainProgram();
    const uint64_t fp = p.fingerprint();

    const std::string dumpPath = "EVENTS_test_exporter.json";
    std::remove(dumpPath.c_str());

    ServingConfig cfg;
    cfg.workers = 1;
    cfg.eventDumpPath = dumpPath;
    ServingEngine engine(&bgv, cfg);

    // Complex-slot inputs under a BGV engine throw in prepare: the
    // job is admitted, dispatched, and dies inside the executor.
    const uint64_t failed0 = counterValue("serving.jobs_failed");
    JobRequest req;
    req.program = &p;
    req.tenant = "doomed_tenant";
    req.inputs.bind(0, std::vector<std::complex<double>>(128));
    auto fut = engine.submit(std::move(req));
    EXPECT_THROW(fut.get(), FatalError);
    EXPECT_EQ(counterValue("serving.jobs_failed") - failed0, 1u);

    // The global recorder holds the job's full lifecycle, in causal
    // order: submit -> admit -> (executor) dispatch+fail -> job fail.
    auto events = obs::FlightRecorder::global().dump();
    std::vector<obs::ServingEventKind> kinds;
    uint64_t jobId = 0;
    for (const auto &e : events) {
        if (e.tenant == "doomed_tenant") {
            kinds.push_back(e.kind);
            if (e.jobId != 0)
                jobId = e.jobId;
            EXPECT_EQ(e.fingerprint, fp);
        }
    }
    ASSERT_EQ(kinds.size(), 3u);
    EXPECT_EQ(kinds[0], obs::ServingEventKind::kSubmit);
    EXPECT_EQ(kinds[1], obs::ServingEventKind::kAdmit);
    EXPECT_EQ(kinds[2], obs::ServingEventKind::kFail);
    EXPECT_NE(jobId, 0u);

    // The executor's batch-level dispatch/fail events carry the same
    // program fingerprint and slot between admit and the job's fail.
    bool sawDispatch = false;
    bool sawBatchFail = false;
    for (const auto &e : events) {
        if (e.fingerprint != fp || e.jobId != 0 ||
            e.tenant == "doomed_tenant")
            continue;
        if (e.kind == obs::ServingEventKind::kDispatch)
            sawDispatch = true;
        if (e.kind == obs::ServingEventKind::kFail)
            sawBatchFail = sawDispatch;
    }
    EXPECT_TRUE(sawDispatch);
    EXPECT_TRUE(sawBatchFail);

    // The failure wrote the post-mortem artifact, and it is JSON.
    std::ifstream in(dumpPath);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string why;
    EXPECT_TRUE(isValidJson(buf.str(), &why)) << why;
    EXPECT_TRUE(contains(buf.str(), "doomed_tenant"));
    std::remove(dumpPath.c_str());
}

//
// HTTP exporter end-to-end (real sockets, ephemeral port).
//

TEST(MetricsExporterTest, ServesAllEndpoints)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.counter("exporter_test.http_hits").inc(3);

    obs::SloConfig scfg;
    scfg.windowSize = 4;
    obs::SloTracker slo(scfg);
    slo.recordJob("slo_t_http", 5.0, 10.0);

    obs::ExporterConfig cfg;
    cfg.slo = &slo;
    obs::MetricsExporter exporter(cfg);
    ASSERT_NE(exporter.port(), 0);

    std::string body;
    EXPECT_EQ(obs::httpGet(exporter.port(), "/healthz", &body), 200);
    EXPECT_EQ(body, "ok\n");

    EXPECT_EQ(obs::httpGet(exporter.port(), "/metrics", &body), 200);
    EXPECT_TRUE(contains(body, "# TYPE "));
    EXPECT_TRUE(contains(body, "f1_exporter_test_http_hits 3"));
    EXPECT_TRUE(
        contains(body, "f1_slo_attainment{tenant=\"slo_t_http\"}"));

    std::string why;
    EXPECT_EQ(obs::httpGet(exporter.port(), "/snapshot.json", &body),
              200);
    EXPECT_TRUE(isValidJson(body, &why)) << why;

    EXPECT_EQ(obs::httpGet(exporter.port(), "/tenants.json", &body),
              200);
    EXPECT_TRUE(isValidJson(body, &why)) << why;
    EXPECT_TRUE(contains(body, "slo_t_http"));

    EXPECT_EQ(obs::httpGet(exporter.port(), "/events.json", &body),
              200);
    EXPECT_TRUE(isValidJson(body, &why)) << why;

    // Query strings are routed by path; unknown paths are 404.
    EXPECT_EQ(obs::httpGet(exporter.port(), "/healthz?x=1", &body),
              200);
    EXPECT_EQ(obs::httpGet(exporter.port(), "/nope", &body), 404);

    exporter.stop();
    exporter.stop(); // idempotent
    EXPECT_EQ(obs::httpGet(exporter.port(), "/healthz", &body), 0);
}

TEST(MetricsExporterTest, HandleRoutesWithoutSockets)
{
    obs::ExporterConfig cfg;
    cfg.snapshot = [] {
        obs::MetricsSnapshot s;
        s.counters["handle_test.value"] = 7;
        return s;
    };
    obs::MetricsExporter exporter(cfg);
    auto r = exporter.handle("/metrics");
    EXPECT_EQ(r.status, 200);
    EXPECT_TRUE(contains(r.body, "f1_handle_test_value 7"));
    EXPECT_TRUE(contains(r.contentType, "0.0.4"));
    EXPECT_EQ(exporter.handle("/tenants.json").body, "{}");
    EXPECT_EQ(exporter.handle("/missing").status, 404);
}

//
// Calibration + live-capture endpoints (the observatory surface).
//

TEST(MetricsExporterTest, ServesCalibrationAndTracez)
{
    obs::ScheduleCalibration::global().reset();
    obs::ScheduleCalibration::global().record(1, "endpoint_kind", 10,
                                              30);
    obs::ScheduleCalibration::global().record(1, "endpoint_kind", 20,
                                              60);

    obs::MetricsExporter exporter;
    ASSERT_NE(exporter.port(), 0);

    std::string body;
    std::string why;
    EXPECT_EQ(
        obs::httpGet(exporter.port(), "/calibration.json", &body),
        200);
    EXPECT_TRUE(isValidJson(body, &why)) << why;
    EXPECT_TRUE(contains(body, "\"endpoint_kind\""));
    EXPECT_TRUE(contains(body, "\"slope_ns_per_cycle\""));
    EXPECT_TRUE(contains(body, "\"mae_ns\""));

    // The same fit reaches Prometheus under a per-op label.
    EXPECT_EQ(obs::httpGet(exporter.port(), "/metrics", &body), 200);
    EXPECT_TRUE(contains(
        body, "f1_calib_samples{op=\"endpoint_kind\"} 2"));

    // /tracez over a real socket: a short live-capture window.
    EXPECT_EQ(obs::httpGet(exporter.port(), "/tracez?ms=2", &body),
              200);
    EXPECT_TRUE(isValidJson(body, &why)) << why;
    EXPECT_TRUE(contains(body, "\"window_ms\": 2"));
    EXPECT_TRUE(contains(body, "\"traceEvents\""));

    // Query routing via the socket-free core: an unparsable ms falls
    // back to the 50ms default rather than erroring, and oversized
    // windows clamp to 2000ms — /tracez is a debugging tool, not an
    // API.
    auto r = exporter.handle("/tracez?ms=abc");
    EXPECT_EQ(r.status, 200);
    EXPECT_TRUE(contains(r.body, "\"window_ms\": 50"));
    EXPECT_TRUE(contains(exporter.handle("/tracez?ms=3000").body,
                         "\"window_ms\": 2000"));
    exporter.stop();
    obs::ScheduleCalibration::global().reset();
}

TEST(FlightRecorderTest, TraceIdRoundTripsThroughDumpAndJson)
{
    obs::FlightRecorder rec(8);
    rec.record(obs::ServingEventKind::kAdmit, 5, "tid_tenant", 9, 1,
               0xabcdef0012345678ULL);
    auto evs = rec.dump();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].traceId, 0xabcdef0012345678ULL);
    EXPECT_EQ(evs[0].jobId, 5u);
    EXPECT_EQ(evs[0].tenant, "tid_tenant");

    std::string why;
    const std::string json = rec.dumpJson();
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_TRUE(
        contains(json, "\"trace_id\": \"0xabcdef0012345678\""));

    // Pre-correlation callers (default argument) stay untraced.
    rec.record(obs::ServingEventKind::kSubmit, 6, "t");
    EXPECT_EQ(rec.dump().back().traceId, 0u);
}

//
// Burn-rate dispatch penalty: a tenant deep into its error budget
// loses the dispatch head to clean tenants BEFORE admission sheds it.
//

TEST(ServingEngineSloTest, BurnRatePenaltyDeprioritizesDispatch)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.reset();
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = chainProgram();

    ServingConfig cfg;
    cfg.workers = 1;
    // Penalty starts at half the shed threshold. An always-missed
    // deadline burns at 1/(1-0.99) = 100x, so with the threshold at
    // 150 the tenant is penalized (>= 75) but never shed (< 150).
    cfg.admission.maxBurnRate = 150.0;
    cfg.slo.windowSize = 8;
    cfg.slo.targetAttainment = 0.99;
    TenantPolicy hot;
    hot.priority = 10; // outranks everyone -- except via its burn
    hot.deadlineMs = 1e-6;
    cfg.tenantPolicies["pen_hot"] = hot;
    ServingEngine engine(&bgv, cfg);

    auto makeReq = [&](const std::string &tenant, uint64_t seed) {
        JobRequest req;
        req.program = &p;
        req.tenant = tenant;
        req.inputs.seed = seed;
        return req;
    };

    // Prime the hot tenant's burn rate with one guaranteed miss.
    engine.submit(makeReq("pen_hot", 1)).get();
    EXPECT_GE(reg.snapshot().counters.at("slo.pen_hot.burn_rate"),
              75000u); // milli-units

    // Occupy the single worker, then queue cold and hot jobs behind
    // it so dispatch has to choose between the two tenants.
    auto blocker = engine.submit(makeReq("pen_block", 2));
    std::vector<std::future<JobResult>> futs;
    for (uint64_t i = 0; i < 3; ++i)
        futs.push_back(engine.submit(makeReq("pen_cold", 10 + i)));
    for (uint64_t i = 0; i < 3; ++i)
        futs.push_back(engine.submit(makeReq("pen_hot", 20 + i)));
    blocker.get();
    for (auto &f : futs)
        f.get(); // penalty deprioritizes; it never starves

    // The first post-blocker completion is a COLD job despite the hot
    // tenant's higher class priority, and the penalty counter says
    // why.
    auto events = obs::FlightRecorder::global().dump();
    uint64_t blockerDone = 0;
    for (const auto &e : events)
        if (e.kind == obs::ServingEventKind::kComplete &&
            e.tenant == "pen_block")
            blockerDone = e.seq;
    ASSERT_NE(blockerDone, 0u);
    std::string firstTenant;
    uint64_t firstSeq = ~0ULL;
    for (const auto &e : events) {
        if (e.kind != obs::ServingEventKind::kComplete ||
            e.seq <= blockerDone)
            continue;
        if ((e.tenant == "pen_hot" || e.tenant == "pen_cold") &&
            e.seq < firstSeq) {
            firstSeq = e.seq;
            firstTenant = e.tenant;
        }
    }
    EXPECT_EQ(firstTenant, "pen_cold");
    EXPECT_GE(
        reg.snapshot().counters.at("serving.dispatch_penalties"), 1u);
    // Penalized, never shed.
    EXPECT_EQ(counterValue("serving.shed_jobs"), 0u);
    reg.reset();
}

} // namespace
} // namespace f1
