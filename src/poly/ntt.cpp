#include "poly/ntt.h"

#include "common/bits.h"
#include "common/error.h"
#include "modular/modarith.h"
#include "modular/primes.h"
#include "obs/profile.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace f1 {

NttTables::NttTables(uint32_t n, uint32_t q) : n_(n), q_(q)
{
    F1_REQUIRE(isPowerOfTwo(n) && n >= 2, "NTT length must be a power "
               "of two >= 2, got " << n);
    // Harvey lazy butterflies carry values in [0, 4q); 4q must fit a
    // 32-bit word.
    F1_REQUIRE(q < (1u << kLazyModulusBits),
               "modulus " << q << " leaves no lazy-reduction headroom "
               "(need q < 2^" << kLazyModulusBits << ")");
    F1_REQUIRE((q - 1) % (2 * n) == 0,
               "modulus " << q << " is not NTT-friendly for n=" << n);
    logN_ = log2Exact(n);
    psi_ = primitiveRootOfUnity(2 * n, q);
    psiInv_ = invMod(psi_, q);
    omega_ = mulMod(psi_, psi_, q);
    omegaInv_ = invMod(omega_, q);
    nInv_ = invMod(n, q);
    buildTwiddles();
}

void
NttTables::buildTwiddles()
{
    tw_.resize(n_);
    twPre_.resize(n_);
    twInv_.resize(n_);
    twInvPre_.resize(n_);
    // Stage `half` (half = len/2) uses tw_[half + j] = omega^((n/2half)j).
    for (uint32_t half = 1; half < n_; half <<= 1) {
        uint32_t wlen = powMod(omega_, n_ / (2 * half), q_);
        uint32_t wlenInv = powMod(omegaInv_, n_ / (2 * half), q_);
        uint32_t w = 1, wi = 1;
        for (uint32_t j = 0; j < half; ++j) {
            tw_[half + j] = w;
            twPre_[half + j] = shoupPrecompute(w, q_);
            twInv_[half + j] = wi;
            twInvPre_[half + j] = shoupPrecompute(wi, q_);
            w = mulMod(w, wlen, q_);
            wi = mulMod(wi, wlenInv, q_);
        }
    }

    psiPow_.resize(n_);
    psiPowPre_.resize(n_);
    psiInvN_.resize(n_);
    psiInvNPre_.resize(n_);
    uint32_t p = 1;
    uint32_t pin = nInv_;
    for (uint32_t i = 0; i < n_; ++i) {
        psiPow_[i] = p;
        psiPowPre_[i] = shoupPrecompute(p, q_);
        psiInvN_[i] = pin;
        psiInvNPre_[i] = shoupPrecompute(pin, q_);
        p = mulMod(p, psi_, q_);
        pin = mulMod(pin, psiInv_, q_);
    }

    rev_.resize(n_);
    for (uint32_t i = 0; i < n_; ++i)
        rev_[i] = bitReverse(i, logN_);

    lenInv_.resize(logN_ + 1);
    lenInvPre_.resize(logN_ + 1);
    for (uint32_t lg = 0; lg <= logN_; ++lg) {
        lenInv_[lg] = invMod(1u << lg, q_);
        lenInvPre_[lg] = shoupPrecompute(lenInv_[lg], q_);
    }
}

uint32_t
NttTables::omegaPow(uint64_t e) const
{
    return powMod(omega_, e % n_, q_);
}

bool
NttTables::simdEnabled()
{
#if defined(__x86_64__)
    static const bool avx2 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return avx2;
#else
    return false;
#endif
}

/** In-place bit-reversal permutation of a power-of-two length <= n. */
void
NttTables::bitReversePermute(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    const uint32_t shift = logN_ - log2Exact(len);
    const uint32_t *rev = rev_.data();
    for (uint32_t i = 0; i < len; ++i) {
        const uint32_t j = rev[i] >> shift;
        if (i < j)
            std::swap(a[i], a[j]);
    }
}

#if defined(__x86_64__)
namespace {

/**
 * AVX2 versions of the lazy kernels: eight 32-bit lanes per step, the
 * same operations as the scalar code, so the results are identical.
 * Each loop expects a length that is a multiple of 8.
 */
namespace avx2 {

#define F1_AVX2 __attribute__((target("avx2")))

F1_AVX2 inline __m256i
load(const uint32_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

F1_AVX2 inline void
store(uint32_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** High 32 bits of the eight 32x32-bit products a[i] * b[i]. */
F1_AVX2 inline __m256i
mulhi(__m256i a, __m256i b)
{
    const __m256i even =
        _mm256_srli_epi64(_mm256_mul_epu32(a, b), 32);
    const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32),
                                         _mm256_srli_epi64(b, 32));
    return _mm256_blend_epi32(even, odd, 0xaa);
}

/** mulModShoupLazy per lane: a * w mod q in [0, 2q). */
F1_AVX2 inline __m256i
mulShoupLazy(__m256i a, __m256i w, __m256i pre, __m256i q)
{
    return _mm256_sub_epi32(_mm256_mullo_epi32(a, w),
                            _mm256_mullo_epi32(mulhi(a, pre), q));
}

/** x >= m ? x - m : x per unsigned lane. */
F1_AVX2 inline __m256i
condSub(__m256i x, __m256i m)
{
    return _mm256_min_epu32(x, _mm256_sub_epi32(x, m));
}

/** a[i] = mulModShoupLazy(a[i], w[i], pre[i], q). */
F1_AVX2 void
mulLazy(uint32_t *a, uint32_t len, const uint32_t *w,
        const uint32_t *pre, uint32_t q)
{
    const __m256i vq = _mm256_set1_epi32(q);
    for (uint32_t i = 0; i < len; i += 8)
        store(a + i, mulShoupLazy(load(a + i), load(w + i),
                                  load(pre + i), vq));
}

/** a[i] = mulModShoup(a[i], w[i], pre[i], q): fully reduced. */
F1_AVX2 void
mulFull(uint32_t *a, uint32_t len, const uint32_t *w,
        const uint32_t *pre, uint32_t q)
{
    const __m256i vq = _mm256_set1_epi32(q);
    for (uint32_t i = 0; i < len; i += 8)
        store(a + i, condSub(mulShoupLazy(load(a + i), load(w + i),
                                          load(pre + i), vq),
                             vq));
}

/** a[i] = lazyCorrect(a[i], q, 2q). */
F1_AVX2 void
correct(uint32_t *a, uint32_t len, uint32_t q)
{
    const __m256i vq = _mm256_set1_epi32(q);
    const __m256i v2q = _mm256_set1_epi32(2 * q);
    for (uint32_t i = 0; i < len; i += 8)
        store(a + i, condSub(condSub(load(a + i), v2q), vq));
}

/** The forward Harvey stages with half = 8 .. len/2. */
F1_AVX2 void
forwardStages(uint32_t *a, uint32_t len, const uint32_t *tw,
              const uint32_t *twPre, uint32_t q)
{
    const __m256i vq = _mm256_set1_epi32(q);
    const __m256i v2q = _mm256_set1_epi32(2 * q);
    for (uint32_t half = 8; half < len; half <<= 1) {
        for (uint32_t base = 0; base < len; base += 2 * half) {
            uint32_t *lo = a + base;
            uint32_t *hi = lo + half;
            for (uint32_t j = 0; j < half; j += 8) {
                const __m256i x = condSub(load(lo + j), v2q);
                const __m256i t =
                    mulShoupLazy(load(hi + j), load(tw + half + j),
                                 load(twPre + half + j), vq);
                store(lo + j, _mm256_add_epi32(x, t));
                store(hi + j,
                      _mm256_sub_epi32(_mm256_add_epi32(x, v2q), t));
            }
        }
    }
}

/** The inverse Harvey stages with half = len/2 .. 8. */
F1_AVX2 void
inverseStages(uint32_t *a, uint32_t len, const uint32_t *tw,
              const uint32_t *twPre, uint32_t q)
{
    const __m256i vq = _mm256_set1_epi32(q);
    const __m256i v2q = _mm256_set1_epi32(2 * q);
    for (uint32_t half = len >> 1; half >= 8; half >>= 1) {
        for (uint32_t base = 0; base < len; base += 2 * half) {
            uint32_t *lo = a + base;
            uint32_t *hi = lo + half;
            for (uint32_t j = 0; j < half; j += 8) {
                const __m256i u = load(lo + j);
                const __m256i v = load(hi + j);
                store(lo + j, condSub(_mm256_add_epi32(u, v), v2q));
                store(hi + j,
                      mulShoupLazy(
                          _mm256_sub_epi32(_mm256_add_epi32(u, v2q), v),
                          load(tw + half + j), load(twPre + half + j),
                          vq));
            }
        }
    }
}

#undef F1_AVX2

} // namespace avx2
} // namespace
#endif // __x86_64__

namespace {

// The element-wise passes of the lazy pipeline; `simd` selects the
// AVX2 loop (callers pass it only for lengths that are multiples of 8).

/** a[i] = mulModShoupLazy(a[i], w[i], pre[i], q), into [0, 2q). */
void
mulLazyPass(std::span<uint32_t> a, const uint32_t *w, const uint32_t *pre,
            uint32_t q, [[maybe_unused]] bool simd)
{
#if defined(__x86_64__)
    if (simd)
        return avx2::mulLazy(a.data(), a.size(), w, pre, q);
#endif
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = mulModShoupLazy(a[i], w[i], pre[i], q);
}

/** a[i] = mulModShoup(a[i], w[i], pre[i], q): [0, 2q) into [0, q). */
void
mulFullPass(std::span<uint32_t> a, const uint32_t *w, const uint32_t *pre,
            uint32_t q, [[maybe_unused]] bool simd)
{
#if defined(__x86_64__)
    if (simd)
        return avx2::mulFull(a.data(), a.size(), w, pre, q);
#endif
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = mulModShoup(a[i], w[i], pre[i], q);
}

/** a[i] = lazyCorrect(a[i], q, 2q): [0, 4q) into [0, q). */
void
correctPass(std::span<uint32_t> a, uint32_t q, [[maybe_unused]] bool simd)
{
#if defined(__x86_64__)
    if (simd)
        return avx2::correct(a.data(), a.size(), q);
#endif
    const uint32_t twoQ = 2 * q;
    for (auto &x : a)
        x = lazyCorrect(x, q, twoQ);
}

} // namespace

/**
 * Lazy Cooley-Tukey (decimation-in-time) forward stages: bit-reversal
 * followed by Harvey butterflies. Accepts values in [0, 4q); leaves
 * values in [0, 4q). Per butterfly: the upper input is conditionally
 * reduced into [0, 2q), the lower is multiplied lazily into [0, 2q),
 * and the outputs x+t / x-t+2q land back in [0, 4q). With `simd` the
 * stages with half >= 8 run on AVX2.
 */
void
NttTables::forwardStagesLazy(std::span<uint32_t> a, bool simd) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    const uint32_t q = q_;
    const uint32_t twoQ = 2 * q;
    bitReversePermute(a);
    const uint32_t scalarEnd = simd ? 8 : len; // simd implies len >= 16
    for (uint32_t half = 1; half < scalarEnd; half <<= 1) {
        const uint32_t *tw = tw_.data() + half;
        const uint32_t *twPre = twPre_.data() + half;
        for (uint32_t base = 0; base < len; base += 2 * half) {
            uint32_t *lo = a.data() + base;
            uint32_t *hi = lo + half;
            for (uint32_t j = 0; j < half; ++j) {
                uint32_t x = lo[j];
                if (x >= twoQ)
                    x -= twoQ;
                const uint32_t t =
                    mulModShoupLazy(hi[j], tw[j], twPre[j], q);
                lo[j] = addLazy(x, t);
                hi[j] = subLazy(x, t, twoQ);
            }
        }
    }
#if defined(__x86_64__)
    if (simd)
        avx2::forwardStages(a.data(), len, tw_.data(), twPre_.data(), q);
#endif
}

/**
 * Lazy Gentleman-Sande (decimation-in-frequency) inverse stages with a
 * trailing bit-reversal — the exact same unscaled inverse DFT the
 * strict DIT loop computes, but with the invariant that every value
 * stays in [0, 2q): the sum butterfly output is conditionally reduced,
 * the difference goes through the lazy multiply. Callers apply the
 * 1/len (or fused ψ^-i/n) scaling with a fully-reducing mulModShoup,
 * which accepts the [0, 2q) inputs and restores [0, q). With `simd`
 * the stages with half >= 8 run on AVX2.
 */
void
NttTables::inverseStagesLazy(std::span<uint32_t> a,
                             [[maybe_unused]] bool simd) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    const uint32_t q = q_;
    const uint32_t twoQ = 2 * q;
    uint32_t half = len >> 1;
#if defined(__x86_64__)
    if (simd) {
        avx2::inverseStages(a.data(), len, twInv_.data(),
                            twInvPre_.data(), q);
        half = 4;
    }
#endif
    for (; half >= 1; half >>= 1) {
        const uint32_t *tw = twInv_.data() + half;
        const uint32_t *twPre = twInvPre_.data() + half;
        for (uint32_t base = 0; base < len; base += 2 * half) {
            uint32_t *lo = a.data() + base;
            uint32_t *hi = lo + half;
            for (uint32_t j = 0; j < half; ++j) {
                const uint32_t u = lo[j];
                const uint32_t v = hi[j];
                uint32_t s = addLazy(u, v); // [0, 4q)
                if (s >= twoQ)
                    s -= twoQ;
                lo[j] = s;
                hi[j] = mulModShoupLazy(subLazy(u, v, twoQ),
                                        tw[j], twPre[j], q);
            }
        }
    }
    bitReversePermute(a);
}

void
NttTables::cyclicForwardLazy(std::span<uint32_t> a, bool simd) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    simd = simd && len >= 16;
    forwardStagesLazy(a, simd);
    correctPass(a, q_, simd);
}

void
NttTables::cyclicInverseLazy(std::span<uint32_t> a, bool simd) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    inverseStagesLazy(a, simd && len >= 16);
    const uint32_t lg = log2Exact(len);
    // Fully-reducing scale: accepts [0, 2q), restores [0, q).
    for (auto &x : a)
        x = mulModShoup(x, lenInv_[lg], lenInvPre_[lg], q_);
}

void
NttTables::forwardLazy(std::span<uint32_t> a, bool simd) const
{
    F1_CHECK(a.size() == n_, "forward NTT length mismatch");
    simd = simd && n_ >= 16;
    // ψ-powers pre-multiplication, lazily into [0, 2q).
    mulLazyPass(a, psiPow_.data(), psiPowPre_.data(), q_, simd);
    forwardStagesLazy(a, simd);
    correctPass(a, q_, simd);
}

void
NttTables::inverseLazy(std::span<uint32_t> a, bool simd) const
{
    F1_CHECK(a.size() == n_, "inverse NTT length mismatch");
    simd = simd && n_ >= 16;
    // Unscaled lazy inverse FFT, then ψ^-i/n in one fully-reducing
    // pass (the fused table folds the 1/n in; it also serves as the
    // lazy pipeline's correction pass).
    inverseStagesLazy(a, simd);
    mulFullPass(a, psiInvN_.data(), psiInvNPre_.data(), q_, simd);
}

void
NttTables::forward(std::span<uint32_t> a) const
{
    // Per-job telemetry: one TLS null check when profiling is off.
    obs::profileAdd(obs::ProfileCounter::kNttForward);
    forwardLazy(a, simdEnabled());
}

void
NttTables::inverse(std::span<uint32_t> a) const
{
    obs::profileAdd(obs::ProfileCounter::kNttInverse);
    inverseLazy(a, simdEnabled());
}

void
NttTables::cyclicForward(std::span<uint32_t> a) const
{
    cyclicForwardLazy(a, simdEnabled());
}

void
NttTables::cyclicInverse(std::span<uint32_t> a) const
{
    cyclicInverseLazy(a, simdEnabled());
}

void
NttTables::forwardScalar(std::span<uint32_t> a) const
{
    forwardLazy(a, false);
}

void
NttTables::inverseScalar(std::span<uint32_t> a) const
{
    inverseLazy(a, false);
}

void
NttTables::cyclicForwardScalar(std::span<uint32_t> a) const
{
    cyclicForwardLazy(a, false);
}

void
NttTables::cyclicInverseScalar(std::span<uint32_t> a) const
{
    cyclicInverseLazy(a, false);
}

void
NttTables::cyclicForwardStrict(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    bitReversePermute(a);
    for (uint32_t half = 1; half < len; half <<= 1) {
        for (uint32_t base = 0; base < len; base += 2 * half) {
            for (uint32_t j = 0; j < half; ++j) {
                uint32_t u = a[base + j];
                uint32_t v = mulModShoup(a[base + half + j],
                                         tw_[half + j],
                                         twPre_[half + j], q_);
                a[base + j] = addMod(u, v, q_);
                a[base + half + j] = subMod(u, v, q_);
            }
        }
    }
}

void
NttTables::cyclicInverseStrict(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    bitReversePermute(a);
    for (uint32_t half = 1; half < len; half <<= 1) {
        for (uint32_t base = 0; base < len; base += 2 * half) {
            for (uint32_t j = 0; j < half; ++j) {
                uint32_t u = a[base + j];
                uint32_t v = mulModShoup(a[base + half + j],
                                         twInv_[half + j],
                                         twInvPre_[half + j], q_);
                a[base + j] = addMod(u, v, q_);
                a[base + half + j] = subMod(u, v, q_);
            }
        }
    }
    const uint32_t lg = log2Exact(len);
    for (auto &x : a)
        x = mulModShoup(x, lenInv_[lg], lenInvPre_[lg], q_);
}

void
NttTables::forwardStrict(std::span<uint32_t> a) const
{
    F1_CHECK(a.size() == n_, "forward NTT length mismatch");
    for (uint32_t i = 0; i < n_; ++i)
        a[i] = mulModShoup(a[i], psiPow_[i], psiPowPre_[i], q_);
    cyclicForwardStrict(a);
}

void
NttTables::inverseStrict(std::span<uint32_t> a) const
{
    F1_CHECK(a.size() == n_, "inverse NTT length mismatch");
    bitReversePermute(a);
    for (uint32_t half = 1; half < n_; half <<= 1) {
        for (uint32_t base = 0; base < n_; base += 2 * half) {
            for (uint32_t j = 0; j < half; ++j) {
                uint32_t u = a[base + j];
                uint32_t v = mulModShoup(a[base + half + j],
                                         twInv_[half + j],
                                         twInvPre_[half + j], q_);
                a[base + j] = addMod(u, v, q_);
                a[base + half + j] = subMod(u, v, q_);
            }
        }
    }
    for (uint32_t i = 0; i < n_; ++i)
        a[i] = mulModShoup(a[i], psiInvN_[i], psiInvNPre_[i], q_);
}

std::vector<uint32_t>
slowNegacyclicNtt(std::span<const uint32_t> a, uint32_t q, uint32_t psi)
{
    const size_t n = a.size();
    std::vector<uint32_t> out(n);
    for (size_t k = 0; k < n; ++k) {
        uint64_t acc = 0;
        uint32_t base = powMod(psi, 2 * k + 1, q);
        uint32_t x = 1;
        for (size_t i = 0; i < n; ++i) {
            acc = (acc + (uint64_t)a[i] * x) % q;
            x = mulMod(x, base, q);
        }
        out[k] = static_cast<uint32_t>(acc);
    }
    return out;
}

std::vector<uint32_t>
slowNegacyclicMul(std::span<const uint32_t> a, std::span<const uint32_t> b,
                  uint32_t q)
{
    const size_t n = a.size();
    F1_CHECK(b.size() == n, "length mismatch");
    std::vector<uint32_t> out(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            uint32_t p = mulMod(a[i], b[j], q);
            size_t k = i + j;
            if (k < n)
                out[k] = addMod(out[k], p, q);
            else
                out[k - n] = subMod(out[k - n], p, q); // x^n = -1
        }
    }
    return out;
}

} // namespace f1
