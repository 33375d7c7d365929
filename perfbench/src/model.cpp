/**
 * @file
 * The F1 model side of the benchmark: exact model counts per compile,
 * their summary, and the compiler/sim per-layer panel.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "common/hash.h"

namespace perfbench {

bool
ModelCounts::operator==(const ModelCounts &o) const
{
    const f1::TrafficBytes &a = traffic, &b = o.traffic;
    return cycles == o.cycles && a.kshCompulsory == b.kshCompulsory &&
           a.kshNonCompulsory == b.kshNonCompulsory &&
           a.inputCompulsory == b.inputCompulsory &&
           a.inputNonCompulsory == b.inputNonCompulsory &&
           a.intermLoad == b.intermLoad && a.intermStore == b.intermStore;
}

ModelCounts
countsOf(const f1::CompileResult &r)
{
    return {r.schedule.cycles, r.schedule.traffic};
}

ModelSummary
summarize(const std::vector<ModelCounts> &counts, const f1::F1Config &cfg)
{
    ModelSummary s;
    double logSum = 0;
    for (const ModelCounts &c : counts) {
        logSum += std::log(double(c.cycles) / (cfg.freqGHz * 1e6));
        s.hbmMb += double(c.traffic.total()) / 1e6;
        const f1::TrafficBytes &t = c.traffic;
        for (uint64_t v : {c.cycles, t.kshCompulsory, t.kshNonCompulsory,
                           t.inputCompulsory, t.inputNonCompulsory,
                           t.intermLoad, t.intermStore})
            s.digest = f1::hashCombine(s.digest, v);
    }
    s.gmeanMs = counts.empty() ? 0 : std::exp(logSum / double(counts.size()));
    return s;
}

void
reportCompilerLayers(Report &rep, const std::vector<NamedProgram> &programs,
                     const std::vector<double> &cpuMs, int reps)
{
    const f1::F1Config cfg;
    double translateMs = 0, memMs = 0, cycleMs = 0;
    double instrs = 0, peakRvecs = 0, spillMb = 0, kshMb = 0;
    double fuBusy = 0, fuCapacity = 0, hbmBusy = 0, cyclesSum = 0;
    double vsPaperLog = 0, cpuOverF1Log = 0;
    int comparable = 0;
    uint64_t fuUnits = 0;
    for (f1::FuType t : {f1::FuType::kNtt, f1::FuType::kAut,
                         f1::FuType::kMul, f1::FuType::kAdd})
        fuUnits += uint64_t(cfg.fuCount(t)) * cfg.clusters;

    rep.note("F1 model panel (MB = 10^6 bytes):");
    rep.note("  program              model_ms  paper_ms   ksh_MB  "
             "input_MB  spill_MB  fu_util  hbm_util");
    for (size_t i = 0; i < programs.size(); ++i) {
        const f1::Program &prog = *programs[i].program;
        std::vector<double> tt, mt, ct;
        f1::TranslationResult tr;
        f1::MemScheduleResult mem;
        f1::ScheduleResult sched;
        for (int r = 0; r < reps; ++r) {
            SpanScope compile("compiler.compile");
            double t0 = nowMs();
            {
                SpanScope s("compiler.translateProgram", compile.id());
                tr = f1::translateProgram(prog);
            }
            double t1 = nowMs();
            {
                SpanScope s("compiler.scheduleMemory", compile.id());
                mem = f1::scheduleMemory(tr.dfg, cfg);
            }
            double t2 = nowMs();
            {
                SpanScope s("compiler.scheduleCycles", compile.id());
                sched = f1::scheduleCycles(tr.dfg, mem, cfg);
            }
            double t3 = nowMs();
            tt.push_back(t1 - t0);
            mt.push_back(t2 - t1);
            ct.push_back(t3 - t2);
        }
        translateMs += median(tt);
        memMs += median(mt);
        cycleMs += median(ct);
        instrs += double(tr.dfg.instrs.size());
        peakRvecs = std::max(peakRvecs, double(mem.peakResidentRVecs));
        const f1::TrafficBytes &tb = sched.traffic;
        const double ksh = double(tb.kshCompulsory + tb.kshNonCompulsory) / 1e6;
        const double input =
            double(tb.inputCompulsory + tb.inputNonCompulsory) / 1e6;
        const double spill = double(tb.intermLoad + tb.intermStore) / 1e6;
        spillMb += spill;
        kshMb += ksh;
        double busy = 0;
        for (uint64_t b : sched.fuBusyCycles)
            busy += double(b);
        fuBusy += busy;
        fuCapacity += double(sched.cycles) * double(fuUnits);
        hbmBusy += double(sched.hbmBusyCycles);
        cyclesSum += double(sched.cycles);

        const double modelMs = sched.timeMs(cfg);
        const char *paper = programs[i].paperF1Ms;
        const bool cmp = paper && paper[0] != '-' && !programs[i].scaled;
        if (cmp) {
            vsPaperLog += std::log(modelMs / std::strtod(paper, nullptr));
            ++comparable;
        }
        if (!cpuMs.empty())
            cpuOverF1Log += std::log(cpuMs[i] / modelMs);
        char line[256];
        snprintf(line, sizeof line,
                 "  %-18s %10.4f %9s %8.2f %9.2f %9.2f %8.3f %9.3f",
                 prog.name().c_str(), modelMs,
                 cmp ? paper : "n/c", ksh, input, spill,
                 busy / (double(sched.cycles) * double(fuUnits)),
                 double(sched.hbmBusyCycles) / double(sched.cycles));
        rep.note(line);
    }
    rep.note("  (n/c: scaled or benchmark-owned program, no comparable "
             "paper figure)");
    const double np = double(programs.size());
    rep.add("compiler.translate_ms", translateMs, "ms");
    rep.add("compiler.memsched_ms", memMs, "ms");
    rep.add("compiler.cyclesched_ms", cycleMs, "ms");
    rep.add("compiler.instrs", instrs, "count");
    rep.add("compiler.peak_resident_rvecs", peakRvecs, "count");
    rep.add("compiler.spill_mb", spillMb, "MB");
    rep.add("compiler.ksh_mb", kshMb, "MB");
    rep.add("sim.fu_util", fuBusy / fuCapacity, "ratio");
    rep.add("sim.hbm_util", hbmBusy / cyclesSum, "ratio");
    rep.add("sim.vs_paper",
            comparable ? std::exp(vsPaperLog / comparable) : 0.0, "ratio");
    if (comparable == 0)
        rep.note("sim.vs_paper = 0: no program of this workload has a "
                 "comparable paper figure");
    rep.add("sim.cpu_over_f1",
            cpuMs.empty() ? 0.0 : std::exp(cpuOverF1Log / np), "ratio");
}

} // namespace perfbench
