/**
 * @file
 * Serving-runtime throughput bench: a batch of independent encrypted
 * jobs from several logical tenants is executed (a) back-to-back
 * serially — the pre-runtime deployment model — and (b) through the
 * ServingEngine at increasing worker counts. Emits one JSON document
 * (BENCH_runtime.json in CI) with jobs/sec, p50/p95 turnaround
 * latency, queue latency, and cache hit rates per worker count.
 *
 * A second section compares the two ExecutionPolicy schedulers
 * (serial, and work stealing with compiler schedule hints) on a deep
 * imbalanced DAG whose independent chains only a parallel scheduler
 * can overlap, and emits per-scheduler p50/p95 execute latency.
 * These runs have telemetry OFF — their numbers are the trajectory CI
 * compares across PRs to hold the "disabled telemetry costs <1%"
 * contract.
 *
 * A third section re-runs the work-stealing config with full
 * telemetry (per-op trace + execution profile), writes the trace to
 * TRACE_scheduler.json (Perfetto-loadable; uploaded as a CI
 * artifact), validates it in-process (span count == executed ops,
 * exit 4 on mismatch), embeds the profile and a metrics-registry
 * snapshot in the JSON, and in full mode gates the telemetry-ON
 * overhead (exit 5 if p50 exceeds 1.5x the off p50 at >= 4 threads).
 *
 * Every run is checked bit-for-bit against the serial baseline: a
 * throughput number from diverging ciphertexts is a correctness
 * failure, not a perf data point (exit 1). In full mode on >= 4
 * hardware threads two gates are enforced: >= 2x jobs/sec at >= 4
 * workers (exit 2) and work-stealing p95 >= 10% below serial p95 on
 * the imbalanced DAG (exit 3).
 *
 * Usage: bench_runtime_throughput [--smoke]
 *   --smoke  CI canary: small degree, few jobs, workers {1, 2},
 *            correctness checks only (no perf gates).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/time_util.h"
#include "compiler/compiler.h"
#include "obs/metrics.h"
#include "runtime/op_graph_executor.h"
#include "runtime/serving.h"

namespace f1::bench {
namespace {

/** Rotate-accumulate over model weights, then a square: the op mix
 *  (plain mul, rotations, ct-ct mul, modswitch) of a small inference
 *  request. */
Program
inferenceProgram(uint32_t n)
{
    Program p(n, 3, "infer");
    int x = p.input();
    int w = p.inputPlain();
    int m = p.mulPlain(x, w);
    int r1 = p.rotate(m, 1);
    int s1 = p.add(m, r1);
    int r2 = p.rotate(s1, 2);
    int s2 = p.add(s1, r2);
    int ms = p.modSwitch(s2);
    p.output(p.mul(ms, ms));
    return p;
}

/** Two-operand aggregate: join-style request shape. */
Program
aggregateProgram(uint32_t n)
{
    Program p(n, 3, "aggregate");
    int x = p.input();
    int y = p.input();
    int t = p.mul(x, y);
    int u = p.rotate(t, 3);
    int v = p.add(t, u);
    p.output(p.modSwitch(v));
    return p;
}

/**
 * Deep imbalanced DAG: `chains` independent accumulator chains of
 * `steps` ops each, phase-shifted so every lockstep step holds exactly
 * one expensive ct-ct multiply and chains-1 cheap adds. The serial
 * order pays every mul back to back; work stealing runs the chains
 * independently and spreads the muls across workers.
 */
Program
deepImbalancedDag(uint32_t n, int chains, int steps)
{
    Program p(n, 3, "deep-dag");
    std::vector<int> acc(chains);
    for (int c = 0; c < chains; ++c)
        acc[c] = p.input();
    for (int s = 0; s < steps; ++s)
        for (int c = 0; c < chains; ++c)
            acc[c] = s % chains == c ? p.mul(acc[c], acc[c])
                                     : p.add(acc[c], acc[c]);
    for (int c = 0; c < chains; ++c)
        p.output(acc[c]);
    return p;
}

uint64_t
outputsHash(const ExecutionResult &r)
{
    uint64_t h = hashMix(r.outputs.size());
    for (const auto &[handle, ct] : r.outputs) {
        h = hashCombine(h, static_cast<uint64_t>(handle));
        for (const auto &poly : ct.polys)
            for (uint32_t v : poly.raw())
                h = hashCombine(h, v);
        h = hashCombine(h, ct.ptCorrection);
    }
    return h;
}

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const size_t idx = std::min(
        xs.size() - 1,
        static_cast<size_t>(q * static_cast<double>(xs.size())));
    return xs[idx];
}

struct SweepRow
{
    unsigned workers;
    double jobsPerSec;
    double speedup;
    double p50Ms, p95Ms, queueP95Ms;
    uint64_t encHits, encMisses;
    bool bitIdentical;
};

uint64_t
counterNow(const char *name)
{
    const auto snap = obs::MetricsRegistry::global().snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

int
run(bool smoke)
{
    const uint32_t n = smoke ? 1024 : 2048;
    const size_t kJobs = smoke ? 8 : 32;
    const std::vector<std::string> tenants = {"alice", "bob", "carol",
                                              "dave"};
    std::vector<unsigned> workerCounts =
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4};
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    if (!smoke && hw > 4)
        workerCounts.push_back(hw);

    FheParams params;
    params.n = n;
    params.maxLevel = 3;
    params.primeBits = 28;
    params.plainModulus = 65537;
    FheContext ctx(params);
    BgvScheme bgv(&ctx);

    Program infer = inferenceProgram(n);
    Program aggregate = aggregateProgram(n);
    std::vector<uint64_t> weights(n);
    for (size_t i = 0; i < n; ++i)
        weights[i] = (5 * i + 3) % 65537;

    auto makeRequest = [&](size_t i) {
        JobRequest req;
        req.program = i % 2 == 0 ? &infer : &aggregate;
        req.tenant = tenants[i % tenants.size()];
        req.inputs.seed = 1000 + i;
        if (i % 2 == 0)
            req.inputs.bind(1, weights); // shared model
        return req;
    };

    ExecutionPolicy serialPolicy;
    serialPolicy.scheduler = SchedulerKind::kSerial;

    // --- Untimed warm-up: one run per program shape generates every
    // key-switch hint, so neither the baseline nor the engine sweep
    // absorbs one-time key generation and the comparison measures
    // job-level parallelism plus encoding reuse, not cache warm-up.
    {
        InlineParallelScope inlineScope;
        for (size_t i = 0; i < 2 && i < kJobs; ++i) {
            JobRequest req = makeRequest(i);
            OpGraphExecutor exec(*req.program, &bgv);
            exec.execute(req.inputs, serialPolicy);
        }
    }

    // --- Serial baseline: one job at a time, fully single-threaded,
    // no encoding cache — back-to-back execution as a non-serving
    // deployment would run it.
    std::vector<uint64_t> baselineHash(kJobs);
    std::vector<double> baselineLat(kJobs);
    double baselineTotalMs = 0;
    {
        InlineParallelScope inlineScope;
        const double t0 = steadyNowMs();
        for (size_t i = 0; i < kJobs; ++i) {
            JobRequest req = makeRequest(i);
            OpGraphExecutor exec(*req.program, &bgv);
            const double j0 = steadyNowMs();
            auto res = exec.execute(req.inputs, serialPolicy);
            baselineLat[i] = steadyNowMs() - j0;
            baselineHash[i] = outputsHash(res);
        }
        baselineTotalMs = steadyNowMs() - t0;
    }
    const double baselineJps =
        1000.0 * static_cast<double>(kJobs) / baselineTotalMs;

    // --- Engine sweep.
    std::vector<SweepRow> rows;
    bool allIdentical = true;
    for (unsigned workers : workerCounts) {
        ServingConfig cfg;
        cfg.workers = workers;
        ServingEngine engine(&bgv, cfg);
        const uint64_t hits0 = counterNow("cache.serving_encoding.hits");
        const uint64_t misses0 =
            counterNow("cache.serving_encoding.misses");

        const double t0 = steadyNowMs();
        std::vector<std::future<JobResult>> futs;
        futs.reserve(kJobs);
        for (size_t i = 0; i < kJobs; ++i)
            futs.push_back(engine.submit(makeRequest(i)));

        std::vector<double> turnaround(kJobs), queueMs(kJobs);
        bool identical = true;
        for (size_t i = 0; i < kJobs; ++i) {
            JobResult r = futs[i].get();
            turnaround[i] = r.queueMs + r.serviceMs;
            queueMs[i] = r.queueMs;
            identical =
                identical && outputsHash(r.exec) == baselineHash[i];
        }
        const double totalMs = steadyNowMs() - t0;
        allIdentical = allIdentical && identical;

        const double jps =
            1000.0 * static_cast<double>(kJobs) / totalMs;
        rows.push_back(
            {workers, jps, jps / baselineJps,
             percentile(turnaround, 0.50), percentile(turnaround, 0.95),
             percentile(queueMs, 0.95),
             counterNow("cache.serving_encoding.hits") - hits0,
             counterNow("cache.serving_encoding.misses") - misses0,
             identical});
    }

    // --- Scheduler latency: the same deep imbalanced DAG under both
    // ExecutionPolicy schedulers, each fed the compiler's schedule
    // hints. wallMs is the timed execute phase
    // (prepare excluded), so this isolates scheduling quality.
    const Program dag =
        deepImbalancedDag(n, 4, smoke ? 8 : 16);
    const ScheduleHints dagHints =
        compileProgram(dag, F1Config{}).hints;
    const int reps = smoke ? 3 : 7;

    struct SchedRow
    {
        const char *name;
        SchedulerKind kind;
        double p50Ms = 0, p95Ms = 0;
        uint64_t steals = 0;
        bool bitIdentical = true;
    };
    std::vector<SchedRow> sched = {
        {"serial", SchedulerKind::kSerial},
        {"work_stealing", SchedulerKind::kWorkStealing},
    };
    const SchedRow &serialRow = sched[0];
    const SchedRow &wsRow = sched[1];
    // --- Telemetry: the work-stealing config again with full
    // telemetry on. The last rep's trace is exported for Perfetto and
    // validated in-process; bit-identity against the baseline proves
    // telemetry never perturbs results.
    double telemOnP50 = 0;
    size_t traceSpans = 0, traceOps = 0, traceLanes = 0;
    uint64_t traceDropped = 0;
    bool traceValid = true;
    std::string profileJson = "{}";
    {
        OpGraphExecutor exec(dag, &bgv);
        RuntimeInputs in;
        in.seed = 77;
        exec.execute(in, serialPolicy); // untimed hint warm-up
        const uint64_t want =
            outputsHash(exec.execute(in, serialPolicy));
        for (SchedRow &row : sched) {
            ExecutionPolicy pol;
            pol.scheduler = row.kind;
            pol.scheduleHints = &dagHints;
            std::vector<double> lat(reps);
            for (int r = 0; r < reps; ++r) {
                auto res = exec.execute(in, pol);
                lat[r] = res.wallMs;
                row.steals += res.steals;
                row.bitIdentical = row.bitIdentical &&
                                   outputsHash(res) == want;
            }
            row.p50Ms = percentile(lat, 0.50);
            row.p95Ms = percentile(lat, 0.95);
            allIdentical = allIdentical && row.bitIdentical;
        }

        ExecutionPolicy pol;
        pol.scheduler = SchedulerKind::kWorkStealing;
        pol.scheduleHints = &dagHints;
        pol.telemetry.profile = true;
        pol.telemetry.trace = true;
        pol.telemetry.label = "bench-scheduler";
        std::vector<double> lat(reps);
        ExecutionResult last;
        for (int r = 0; r < reps; ++r) {
            last = exec.execute(in, pol);
            lat[r] = last.wallMs;
            allIdentical =
                allIdentical && outputsHash(last) == want;
        }
        telemOnP50 = percentile(lat, 0.50);
        if (last.trace && last.profile) {
            traceSpans = last.trace->spanCount();
            traceOps = last.opsExecuted;
            traceLanes = last.trace->laneCount();
            traceDropped = last.trace->droppedEvents();
            traceValid =
                traceSpans == traceOps && traceDropped == 0;
            profileJson = last.profile->toJson();
            std::ofstream f("TRACE_scheduler.json");
            last.trace->writeJson(f);
        } else {
            traceValid = false;
        }
    }

    const auto hintStats = bgv.hintCacheStats();
    printf("{\n  \"bench\": \"runtime_throughput\",\n");
    printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    printf("  \"hw_concurrency\": %u,\n", hw);
    printf("  \"n\": %u, \"levels\": 3, \"jobs\": %zu, \"tenants\": "
           "%zu,\n",
           n, kJobs, tenants.size());
    printf("  \"baseline\": {\"jobs_per_sec\": %.2f, \"p50_ms\": %.3f, "
           "\"p95_ms\": %.3f},\n",
           baselineJps, percentile(baselineLat, 0.50),
           percentile(baselineLat, 0.95));
    printf("  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        printf("    {\"workers\": %u, \"jobs_per_sec\": %.2f, "
               "\"speedup_vs_serial\": %.3f, \"p50_ms\": %.3f, "
               "\"p95_ms\": %.3f, \"queue_p95_ms\": %.3f, "
               "\"enc_cache_hits\": %llu, \"enc_cache_misses\": %llu, "
               "\"bit_identical\": %s}%s\n",
               r.workers, r.jobsPerSec, r.speedup, r.p50Ms, r.p95Ms,
               r.queueP95Ms, (unsigned long long)r.encHits,
               (unsigned long long)r.encMisses,
               r.bitIdentical ? "true" : "false",
               i + 1 < rows.size() ? "," : "");
    }
    printf("  ],\n");
    printf("  \"scheduler_latency\": {\n");
    printf("    \"program\": \"deep-dag\", \"chains\": 4, \"reps\": "
           "%d, \"threads\": %u,\n",
           reps, hw);
    printf("    \"results\": [\n");
    for (size_t i = 0; i < sched.size(); ++i) {
        const SchedRow &r = sched[i];
        printf("      {\"scheduler\": \"%s\", \"p50_ms\": %.3f, "
               "\"p95_ms\": %.3f, \"steals\": %llu, "
               "\"bit_identical\": %s}%s\n",
               r.name, r.p50Ms, r.p95Ms,
               (unsigned long long)r.steals,
               r.bitIdentical ? "true" : "false",
               i + 1 < sched.size() ? "," : "");
    }
    printf("    ],\n");
    printf("    \"ws_vs_serial_p95\": %.3f\n  },\n",
           serialRow.p95Ms > 0 ? wsRow.p95Ms / serialRow.p95Ms : 0.0);
    printf("  \"telemetry\": {\n");
    printf("    \"scheduler\": \"work_stealing\", \"off_p50_ms\": "
           "%.3f, \"on_p50_ms\": %.3f, \"on_overhead\": %.3f,\n",
           wsRow.p50Ms, telemOnP50,
           wsRow.p50Ms > 0 ? telemOnP50 / wsRow.p50Ms : 0.0);
    printf("    \"trace_file\": \"TRACE_scheduler.json\", "
           "\"trace_spans\": %zu, \"ops_executed\": %zu, "
           "\"trace_lanes\": %zu, \"trace_dropped\": %llu, "
           "\"trace_valid\": %s,\n",
           traceSpans, traceOps, traceLanes,
           (unsigned long long)traceDropped,
           traceValid ? "true" : "false");
    printf("    \"profile\": %s\n  },\n", profileJson.c_str());
    printf("  \"hint_cache\": {\"hits\": %llu, \"misses\": %llu, "
           "\"evictions\": %llu},\n",
           (unsigned long long)hintStats.hits,
           (unsigned long long)hintStats.misses,
           (unsigned long long)hintStats.evictions);
    printf("  \"metrics\": %s\n}\n",
           obs::MetricsRegistry::global().snapshot().toJson().c_str());

    if (!allIdentical)
        return 1;
    // Trace integrity is a correctness gate in both modes: one span
    // per executed op, nothing dropped at this scale.
    if (!traceValid) {
        fprintf(stderr,
                "FAIL: trace invalid (%zu spans vs %zu ops, %llu "
                "dropped)\n",
                traceSpans, traceOps,
                (unsigned long long)traceDropped);
        return 4;
    }
    if (!smoke) {
        // Acceptance gate: >= 2x jobs/sec over back-to-back serial at
        // >= 4 workers on an independent-job batch.
        for (const SweepRow &r : rows) {
            if (r.workers >= 4 && hw >= 4 && r.speedup < 2.0) {
                fprintf(stderr,
                        "FAIL: %u workers reached only %.2fx\n",
                        r.workers, r.speedup);
                return 2;
            }
        }
        // Acceptance gate: on the deep imbalanced DAG at >= 4
        // threads, work stealing must beat the serial order by >= 10%
        // at p95. Below 4 hardware threads there is too little
        // op-level parallelism to reclaim, so the gate is moot.
        if (hw >= 4 && wsRow.p95Ms > 0.90 * serialRow.p95Ms) {
            fprintf(stderr,
                    "FAIL: work-stealing p95 %.3f ms vs serial "
                    "%.3f ms (< 10%% improvement)\n",
                    wsRow.p95Ms, serialRow.p95Ms);
            return 3;
        }
        // Telemetry sanity gate: full tracing + profiling must stay
        // cheap (two clock reads and one ring store per op). The off
        // path is gated structurally (TLS null checks only) and by
        // the scheduler-latency trajectory above.
        if (hw >= 4 && wsRow.p50Ms > 0 &&
            telemOnP50 > 1.5 * wsRow.p50Ms) {
            fprintf(stderr,
                    "FAIL: telemetry-on p50 %.3f ms vs off %.3f ms "
                    "(> 1.5x)\n",
                    telemOnP50, wsRow.p50Ms);
            return 5;
        }
    }
    return 0;
}

} // namespace
} // namespace f1::bench

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
    return f1::bench::run(smoke);
}
