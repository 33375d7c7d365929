/**
 * @file
 * AVX2-vs-lazy-vs-strict NTT microbench plus key-switch arena stats,
 * emitting one JSON document on stdout for the per-PR perf trajectory
 * (uploaded by CI as BENCH_ntt.json).
 *
 * Part 1 times a forward+inverse negacyclic NTT pair per modulus at
 * several N, single-threaded, on three paths: the AVX2 Harvey
 * butterflies (NttTables::forward/inverse on an AVX2 host), the
 * scalar lazy path (forwardScalar/inverseScalar) and the
 * strict-reduction reference (forwardStrict/inverseStrict), and
 * cross-checks that the outputs are bit-identical. On a host without
 * AVX2 the AVX2 column is null. Part 2 runs GHS and digit
 * key-switching in steady state and reports the scratch arena's
 * checkout statistics: heap allocations per apply() must be zero once
 * warm.
 *
 * Usage: bench_ntt_lazy [--smoke]
 *   --smoke  fewer reps and only N = 4096, for the CI canary.
 *
 * Exits nonzero on any correctness failure (a divergence between any
 * two NTT paths or a warm apply() that hits the heap); the speedup
 * numbers themselves are data points, not gates.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/scratch.h"
#include "fhe/fhe_context.h"
#include "fhe/keyswitch.h"
#include "modular/primes.h"
#include "poly/ntt.h"
#include "poly/rns_poly.h"

namespace f1::bench {
namespace {

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

struct NttRow
{
    uint32_t n;
    uint32_t q;
    size_t reps;
    double avx2Ms;   //!< per forward+inverse pair; < 0 without AVX2
    double lazyMs;
    double strictMs;
    bool identical;
};

/** Mean ms per forward+inverse pair of `fwd`/`inv` over `reps`. */
template <typename Fwd, typename Inv>
double
timePairs(const std::vector<uint32_t> &a, size_t reps, Fwd fwd, Inv inv)
{
    std::vector<uint32_t> work = a;
    const double t0 = nowMs();
    for (size_t r = 0; r < reps; ++r) {
        fwd(std::span<uint32_t>(work));
        inv(std::span<uint32_t>(work));
    }
    return (nowMs() - t0) / reps;
}

NttRow
runNttPair(uint32_t n, size_t reps)
{
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    Rng rng(n);
    std::vector<uint32_t> a(n);
    for (auto &x : a)
        x = static_cast<uint32_t>(rng.uniform(q));
    const bool simd = NttTables::simdEnabled();

    // Cross-check first (also warms caches and twiddle tables).
    std::vector<uint32_t> fast = a, lazy = a, strict = a;
    t.forward(fast);
    t.forwardScalar(lazy);
    t.forwardStrict(strict);
    bool identical = fast == lazy && lazy == strict;
    t.inverse(fast);
    t.inverseScalar(lazy);
    t.inverseStrict(strict);
    identical = identical && fast == lazy && lazy == strict && lazy == a;

    const double avx2Ms =
        simd ? timePairs(
                   a, reps, [&](auto s) { t.forward(s); },
                   [&](auto s) { t.inverse(s); })
             : -1.0;
    const double lazyMs = timePairs(
        a, reps, [&](auto s) { t.forwardScalar(s); },
        [&](auto s) { t.inverseScalar(s); });
    const double strictMs = timePairs(
        a, reps, [&](auto s) { t.forwardStrict(s); },
        [&](auto s) { t.inverseStrict(s); });
    return {n, q, reps, avx2Ms, lazyMs, strictMs, identical};
}

struct ArenaRow
{
    const char *variant;
    size_t applies;
    double checkoutsPerApply;
    uint64_t warmHeapAllocs; //!< must be 0
    double msPerApply;
};

ArenaRow
runKeySwitchArena(KeySwitchVariant variant, const char *name,
                  size_t applies)
{
    FheParams p;
    p.n = 1024;
    p.maxLevel = 4;
    p.auxCount = 4;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    KeySwitcher sw(&ctx);
    Rng rng(11);
    SecretKey sk = sw.keyGen(rng);
    auto w = sk.s.mul(sk.s);
    auto hint = sw.makeHint(w, sk, 4, p.plainModulus, variant, rng);
    auto x = RnsPoly::uniform(ctx.polyContext(), 4, rng);

    // Two warm applies populate every thread cache size class.
    auto u = sw.apply(x, hint, p.plainModulus);
    u = sw.apply(x, hint, p.plainModulus);

    ScratchArena::resetStats();
    const double t0 = nowMs();
    for (size_t r = 0; r < applies; ++r)
        u = sw.apply(x, hint, p.plainModulus);
    const double elapsed = nowMs() - t0;
    const auto st = ScratchArena::stats();
    return {name, applies,
            static_cast<double>(st.checkouts) / applies,
            st.heapAllocs, elapsed / applies};
}

int
run(bool smoke)
{
    // Single-threaded by design: this measures the butterfly kernel,
    // not the limb dispatch (bench_parallel_scaling covers that).
    setGlobalThreadCount(1);

    const std::vector<uint32_t> sizes =
        smoke ? std::vector<uint32_t>{4096}
              : std::vector<uint32_t>{1024, 4096, 16384};
    std::vector<NttRow> rows;
    for (uint32_t n : sizes) {
        const size_t reps =
            smoke ? 64 : std::max<size_t>(64, (1u << 22) / n);
        rows.push_back(runNttPair(n, reps));
    }

    const size_t applies = smoke ? 4 : 16;
    const ArenaRow arena[] = {
        runKeySwitchArena(KeySwitchVariant::kGhsExtension,
                          "keyswitch_ghs", applies),
        runKeySwitchArena(KeySwitchVariant::kDigitLxL,
                          "keyswitch_digit", applies),
    };
    setGlobalThreadCount(0);

    printf("{\n  \"bench\": \"ntt_lazy\",\n");
    printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    printf("  \"threads\": 1,\n");
    printf("  \"ntt\": [\n");
    bool ok = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        const NttRow &r = rows[i];
        ok = ok && r.identical;
        char avx2[64] = "null", avx2Speedup[64] = "null";
        if (r.avx2Ms >= 0) {
            snprintf(avx2, sizeof avx2, "%.5f", r.avx2Ms);
            snprintf(avx2Speedup, sizeof avx2Speedup, "%.3f",
                     r.lazyMs / r.avx2Ms);
        }
        printf("    {\"n\": %u, \"q\": %u, \"reps\": %zu, "
               "\"avx2_ms_per_pair\": %s, "
               "\"lazy_ms_per_pair\": %.5f, "
               "\"strict_ms_per_pair\": %.5f, "
               "\"speedup_avx2_vs_lazy\": %s, "
               "\"speedup_lazy_vs_strict\": %.3f, "
               "\"bit_identical\": %s}%s\n",
               r.n, r.q, r.reps, avx2, r.lazyMs, r.strictMs, avx2Speedup,
               r.strictMs / r.lazyMs, r.identical ? "true" : "false",
               i + 1 < rows.size() ? "," : "");
    }
    printf("  ],\n");
    printf("  \"keyswitch_arena\": [\n");
    for (size_t i = 0; i < 2; ++i) {
        const ArenaRow &r = arena[i];
        ok = ok && r.warmHeapAllocs == 0;
        printf("    {\"variant\": \"%s\", \"applies\": %zu, "
               "\"arena_checkouts_per_apply\": %.1f, "
               "\"warm_heap_allocs\": %llu, "
               "\"ms_per_apply\": %.4f}%s\n",
               r.variant, r.applies, r.checkoutsPerApply,
               static_cast<unsigned long long>(r.warmHeapAllocs),
               r.msPerApply, i + 1 < 2 ? "," : "");
    }
    printf("  ]\n}\n");
    return ok ? 0 : 1;
}

} // namespace
} // namespace f1::bench

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
            return 2;
        }
    }
    return f1::bench::run(smoke);
}
