/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload <serve-bgv|infer-ckks|compile-suite>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-file <p>]
 *
 * --trace 0 measures the end-to-end metrics with all telemetry off;
 * --trace 1 is a separate run that records spans around the calls
 * into each module, reports the per-layer metrics, and writes the
 * spans as a Chrome trace. Prints every metric by name with its unit,
 * then one JSON line; exits 1 when any output check fails.
 */
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "bench.h"
#include "common/parallel.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    fprintf(stderr,
            "perfbench: %s\nusage: perfbench --workload "
            "<serve-bgv|infer-ckks|compile-suite> --seed <n> "
            "--seconds <1..60> --trace <0|1> [--trace-file <path>]\n",
            why);
    exit(2);
}

uint64_t
parseUint(const char *s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage(what);
    return v;
}

Args
parse(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            a.seed = parseUint(v, "bad --seed");
        } else if (k == "--seconds") {
            const uint64_t s = parseUint(v, "bad --seconds");
            if (s < 1 || s > 60)
                usage("--seconds must be 1..60");
            a.seconds = int(s);
        } else if (k == "--trace") {
            if (strcmp(v, "0") != 0 && strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            a.trace = v[0] == '1';
        } else if (k == "--trace-file") {
            a.traceFile = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

void
printLayerSelfTimes(Report &rep)
{
    rep.note("span self time by layer (ms; total / self / count):");
    for (const auto &[name, lt] : spans().layerTimes()) {
        char buf[200];
        snprintf(buf, sizeof buf, "  %-28s %12.3f %12.3f %8zu",
                 name.c_str(), lt.totalMs, lt.selfMs, lt.count);
        rep.note(buf);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    // Busy threads never exceed the core count: the global pool is
    // sized to it and each workload budgets its workers against it.
    f1::setGlobalThreadCount(
        std::max(1u, std::thread::hardware_concurrency()));

    Report rep;
    try {
        if (a.workload == "serve-bgv")
            runServeBgv(a, rep);
        else if (a.workload == "infer-ckks")
            runInferCkks(a, rep);
        else if (a.workload == "compile-suite")
            runCompileSuite(a, rep);
        else
            usage(("unknown workload " + a.workload).c_str());
    } catch (const std::exception &e) {
        fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (a.trace) {
        printLayerSelfTimes(rep);
        if (!a.traceFile.empty()) {
            spans().writeChromeTrace(a.traceFile);
            rep.note("trace: " + a.traceFile + " (" +
                     std::to_string(spans().size()) + " spans)");
        }
    }
    rep.print();
    return rep.correct() ? 0 : 1;
}
