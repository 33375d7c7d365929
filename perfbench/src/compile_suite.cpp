/**
 * @file
 * compile-suite: repeated compileProgram passes over the paper's
 * Table 3 programs against the default F1Config, on one thread, with
 * no FHE execution. The compiler phases do all of the work, and the
 * modelled F1 time and traffic come out of them. Each program compile
 * is one job; every timed compile must reproduce the (cycles,
 * traffic) of the schedule that checkSchedule validated at set-up.
 */
#include <cstdio>

#include "bench.h"
#include "sim/checker.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

struct Suite
{
    std::vector<f1::Workload> workloads;
    std::vector<ModelCounts> expect;
};

/** Builds the suite and validates every schedule once. */
void
setupSuite(Suite &s, Report &rep)
{
    const f1::F1Config cfg;
    s.workloads = f1::makeTable3Suite();
    s.expect.clear();
    f1::CompileOptions opt;
    opt.recordEvents = true;
    for (const f1::Workload &w : s.workloads) {
        const f1::CompileResult r = f1::compileProgram(w.program, cfg, opt);
        const f1::CheckReport chk = f1::checkSchedule(r.schedule, cfg);
        if (!chk.ok)
            rep.fail("schedule of " + w.program.name() +
                     " fails the checker: " + chk.firstViolation);
        s.expect.push_back(countsOf(r));
    }
}

/** One timed pass; appends each program's compile time to jobsMs. */
double
suitePass(const Suite &s, Report &rep, std::vector<double> &jobsMs,
          uint64_t &ok)
{
    const f1::F1Config cfg;
    const double t0 = nowMs();
    for (size_t i = 0; i < s.workloads.size(); ++i) {
        const double j0 = nowMs();
        const f1::CompileResult r =
            f1::compileProgram(s.workloads[i].program, cfg);
        jobsMs.push_back(nowMs() - j0);
        ++rep.attempted;
        if (countsOf(r) == s.expect[i]) {
            ++ok;
        } else {
            ++rep.failed;
            rep.fail("compile of " + s.workloads[i].program.name() +
                     " did not reproduce its validated model counts");
        }
    }
    return nowMs() - t0;
}

/** Per-layer metrics of the FHE and serving layers, which
 *  compile-suite does not exercise: its traced run reports them as 0. */
const char *const kNotExercised[][2] = {
    {"serving.queue_ms_p50", "ms"},
    {"serving.service_ms_p50", "ms"},
    {"serving.submit_us_p50", "us"},
    {"serving.batch_size_mean", "jobs"},
    {"serving.encoding_hit_ratio", "ratio"},
    {"serving.shed_frac", "ratio"},
    {"fhe.hint_miss_timed", "count"},
    {"common.scratch_heap_allocs_per_job", "count"},
    {"executor.prepare_ms", "ms"},
    {"executor.execute_ms", "ms"},
    {"executor.op_sum_ms", "ms"},
    {"executor.unattributed_frac", "ratio"},
    {"executor.ws_speedup", "ratio"},
    {"executor.peak_resident_cts", "count"},
    {"ledger.unattributed_frac", "ratio"},
    {"fhe.add_us", "us"},
    {"fhe.mul_plain_us", "us"},
    {"fhe.mul_us", "us"},
    {"fhe.rotate_us", "us"},
    {"fhe.mod_switch_us", "us"},
    {"fhe.encode_us", "us"},
    {"fhe.encrypt_us", "us"},
    {"fhe.decrypt_us", "us"},
    {"poly.ntt_fwd_us", "us"},
    {"poly.ntt_inv_us", "us"},
    {"poly.automorphism_us", "us"},
    {"modular.mulmod_ns", "ns"},
    {"poly.ntt_batch_speedup", "ratio"},
};

} // namespace

void
runCompileSuite(const Args &a, Report &rep)
{
    Suite suite;
    if (a.trace) {
        setupSuite(suite, rep);
        std::vector<double> jobs, passes;
        uint64_t ok = 0;
        for (int i = 0; i < 2; ++i)
            passes.push_back(suitePass(suite, rep, jobs, ok));
        spans().enabled = true;
        std::vector<NamedProgram> named;
        for (const f1::Workload &w : suite.workloads)
            named.push_back({&w.program, w.paperF1Ms,
                             w.program.name() == "lola-cifar-uw"});
        reportCompilerLayers(rep, named, {}, 2);
        rep.note("sim.cpu_over_f1 and the serving, executor, ledger, "
                 "fhe, common, poly and modular layers are 0: "
                 "compile-suite runs no FHE and serves no jobs");
        for (const auto &[name, unit] : kNotExercised)
            rep.add(name, 0.0, unit);
        // Traced pass: the three phases run under spans above.
        double tracedPass = 0;
        for (const auto &[name, lt] : spans().layerTimes())
            if (name == "compiler.compile")
                tracedPass = lt.totalMs / double(lt.count) *
                             double(suite.workloads.size());
        rep.add("trace.overhead_ratio", tracedPass / median(passes),
                "ratio");
        return;
    }

    std::vector<double> setups;
    std::vector<ModelCounts> first;
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowMs();
        setupSuite(suite, rep);
        setups.push_back((nowMs() - t0) / 1e3);
        if (i == 0)
            first = suite.expect;
        else if (suite.expect != first)
            rep.fail("model counts differ between set-ups");
    }

    const int passes = std::max(3, 3 * a.seconds / 2);
    std::vector<double> jobs, passMs;
    uint64_t ok = 0;
    double window = 0;
    for (int p = 0; p < passes; ++p) {
        passMs.push_back(suitePass(suite, rep, jobs, ok));
        window += passMs.back();
    }
    double pct = 0;
    const double tail = tailWithTenBeyond(jobs, &pct);
    char buf[160];
    snprintf(buf, sizeof buf,
             "compile-suite: %d passes x %zu programs; job_tail_ms = "
             "p%.1f of %zu compiles",
             passes, suite.workloads.size(), pct, jobs.size());
    rep.note(buf);
    snprintf(buf, sizeof buf, "compile_ms (median suite pass) %.3f ms",
             median(passMs));
    rep.note(buf);

    const ModelSummary model = summarize(suite.expect, f1::F1Config());
    rep.note("model digest " + std::to_string(model.digest) +
             " (must match across runs of the same code)");
    rep.add("setup_s", median(setups), "s");
    rep.add("job_p50_ms", median(jobs), "ms");
    rep.add("job_tail_ms", tail, "ms");
    rep.add("throughput_jobs_s", double(ok) / (window / 1e3), "jobs/s");
    rep.add("ok_frac", double(ok) / double(jobs.size()), "ratio");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    rep.add("f1_sim_gmean_ms", model.gmeanMs, "model_ms");
    rep.add("f1_hbm_mb", model.hbmMb, "MB");
}

} // namespace perfbench
