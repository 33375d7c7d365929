/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: workload
 * compilation against an F1 configuration and CPU-baseline execution
 * through the op-graph executor.
 */
#ifndef F1_BENCH_BENCH_UTIL_H
#define F1_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <memory>
#include <string>

#include "common/parallel.h"
#include "compiler/compiler.h"
#include "runtime/op_graph_executor.h"
#include "workloads/workloads.h"

namespace f1::bench {

/** Compiles and simulates a workload on `cfg`; returns the result. */
inline CompileResult
simulate(const Workload &w, const F1Config &cfg,
         const CompileOptions &opt = {})
{
    setGlobalThreadCount(cfg.hostThreads);
    return compileProgram(w.program, cfg, opt);
}

/** Runs the CPU software baseline (default work-stealing policy);
 *  returns the timed execute phase in milliseconds. */
inline double
cpuBaselineMs(const Workload &w, const F1Config &cfg = {})
{
    setGlobalThreadCount(cfg.hostThreads);
    FheParams params;
    params.n = w.n;
    params.maxLevel = w.maxLevel;
    params.auxCount = w.auxCount;
    params.primeBits = 28;
    params.plainModulus = 65537;
    FheContext ctx(params);
    KeySwitchVariant variant = w.auxCount > 0
                                   ? KeySwitchVariant::kGhsExtension
                                   : KeySwitchVariant::kDigitLxL;
    if (w.scheme == WorkloadScheme::kBgv) {
        BgvScheme scheme(&ctx, 0, variant);
        return OpGraphExecutor(w.program, &scheme).execute().wallMs;
    }
    CkksScheme scheme(&ctx, variant);
    return OpGraphExecutor(w.program, &scheme).execute().wallMs;
}

inline void
hr(char c = '-')
{
    for (int i = 0; i < 78; ++i)
        putchar(c);
    putchar('\n');
}

} // namespace f1::bench

#endif // F1_BENCH_BENCH_UTIL_H
