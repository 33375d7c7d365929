/**
 * @file
 * Tests for scalar modular arithmetic, the four Table-1 multiplier
 * designs, Shoup multiplication, and prime generation.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "modular/modarith.h"
#include "modular/multiplier.h"
#include "modular/primes.h"

namespace f1 {
namespace {

uint32_t
refMul(uint32_t a, uint32_t b, uint32_t q)
{
    return static_cast<uint32_t>((unsigned __int128)a * b % q);
}

class MultiplierTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(MultiplierTest, AllDesignsMatchReference)
{
    const uint32_t q = GetParam();
    auto muls = makeAllMultipliers(q);
    ASSERT_EQ(muls.size(), 4u);
    Rng rng(q);
    for (int it = 0; it < 2000; ++it) {
        uint32_t a = static_cast<uint32_t>(rng.uniform(q));
        uint32_t b = static_cast<uint32_t>(rng.uniform(q));
        uint32_t ref = refMul(a, b, q);
        for (const auto &m : muls) {
            EXPECT_EQ(m->mul(a, b), ref)
                << m->name() << " a=" << a << " b=" << b << " q=" << q;
        }
    }
}

TEST_P(MultiplierTest, CornerCases)
{
    const uint32_t q = GetParam();
    auto muls = makeAllMultipliers(q);
    const uint32_t cases[] = {0u, 1u, 2u, q - 1, q - 2, q / 2, q / 2 + 1};
    for (const auto &m : muls)
        for (uint32_t a : cases)
            for (uint32_t b : cases)
                EXPECT_EQ(m->mul(a, b), refMul(a, b, q)) << m->name();
}

// Primes of several widths, all ≡ 1 (mod 2^16) so the FHE-friendly
// design applies (the library-wide modulus constraint).
INSTANTIATE_TEST_SUITE_P(
    Widths, MultiplierTest,
    ::testing::ValuesIn([] {
        std::vector<uint32_t> qs;
        for (uint32_t bits : {24u, 26u, 28u, 30u, 31u}) {
            auto p = generateNttPrimes(2, bits, 1024);
            qs.insert(qs.end(), p.begin(), p.end());
        }
        return qs;
    }()));

TEST(Multiplier, CostTableMatchesPaperTable1)
{
    auto muls = makeAllMultipliers(generateNttPrimes(1, 28, 1024)[0]);
    // Paper Table 1 (14/12nm synthesis).
    EXPECT_DOUBLE_EQ(muls[0]->cost().areaUm2, 5271.0);
    EXPECT_DOUBLE_EQ(muls[1]->cost().areaUm2, 2916.0);
    EXPECT_DOUBLE_EQ(muls[2]->cost().areaUm2, 2165.0);
    EXPECT_DOUBLE_EQ(muls[3]->cost().areaUm2, 1817.0);
    // FHE-friendly strictly dominates NTT-friendly in area and power.
    EXPECT_LT(muls[3]->cost().areaUm2, muls[2]->cost().areaUm2);
    EXPECT_LT(muls[3]->cost().powerMw, muls[2]->cost().powerMw);
}

TEST(ModArith, AddSubNeg)
{
    const uint32_t q = 65537;
    EXPECT_EQ(addMod(65536, 1, q), 0u);
    EXPECT_EQ(addMod(65536, 65536, q), 65535u);
    EXPECT_EQ(subMod(0, 1, q), 65536u);
    EXPECT_EQ(negMod(0, q), 0u);
    EXPECT_EQ(negMod(1, q), 65536u);
}

TEST(ModArith, PowAndInverse)
{
    const uint32_t q = generateNttPrimes(1, 28, 4096)[0];
    Rng rng(3);
    for (int it = 0; it < 100; ++it) {
        uint32_t a = static_cast<uint32_t>(rng.uniform(q - 1)) + 1;
        uint32_t inv = invMod(a, q);
        EXPECT_EQ(mulMod(a, inv, q), 1u);
        EXPECT_EQ(powMod(a, q - 1, q), 1u); // Fermat
    }
}

TEST(ModArith, ShoupMatchesReference)
{
    const uint32_t q = generateNttPrimes(1, 30, 8192)[0];
    Rng rng(11);
    for (int it = 0; it < 2000; ++it) {
        uint32_t a = static_cast<uint32_t>(rng.uniform(q));
        uint32_t w = static_cast<uint32_t>(rng.uniform(q));
        uint32_t pre = shoupPrecompute(w, q);
        EXPECT_EQ(mulModShoup(a, w, pre, q), refMul(a, w, q));
    }
}

/** x mod q in [0, q) for a signed x, via the C++ truncating %. */
uint32_t
refSignedMod(int64_t x, uint32_t q)
{
    int64_t r = x % (int64_t)q;
    return static_cast<uint32_t>(r < 0 ? r + q : r);
}

TEST(Barrett, ReduceMatchesRemainder)
{
    Rng rng(21);
    std::vector<uint32_t> qs = {2u, 3u, 65537u, (1u << 31) - 1,
                                generateNttPrimes(1, 28, 1024)[0],
                                generateNttPrimes(1, 30, 8192)[0]};
    for (int i = 0; i < 20; ++i)
        qs.push_back(2 + static_cast<uint32_t>(rng.uniform((1u << 31) - 3)));
    for (uint32_t q : qs) {
        const Barrett br(q);
        const uint64_t edges[] = {0,
                                  q - 1u,
                                  q,
                                  uint64_t(1) << 62,
                                  ~uint64_t(0),
                                  (uint64_t)(q - 1u) * (q - 1u)};
        for (uint64_t x : edges)
            EXPECT_EQ(br.reduce(x), x % q) << "x=" << x << " q=" << q;
        for (int it = 0; it < 2000; ++it) {
            const uint64_t x = rng.next();
            ASSERT_EQ(br.reduce(x), x % q) << "x=" << x << " q=" << q;
            const uint32_t a = static_cast<uint32_t>(rng.uniform(q));
            const uint32_t b = static_cast<uint32_t>(rng.uniform(q));
            ASSERT_EQ(br.mul(a, b), refMul(a, b, q))
                << "a=" << a << " b=" << b << " q=" << q;
        }
    }
}

TEST(Barrett, ReduceSignedMatchesRemainderOnFullInt64Range)
{
    Rng rng(22);
    std::vector<uint32_t> qs = {2u, 3u, 65537u, (1u << 31) - 1,
                                generateNttPrimes(1, 28, 1024)[0]};
    for (int i = 0; i < 20; ++i)
        qs.push_back(2 + static_cast<uint32_t>(rng.uniform((1u << 31) - 3)));
    for (uint32_t q : qs) {
        const Barrett br(q);
        const int64_t edges[] = {0,
                                 1,
                                 -1,
                                 (int64_t)q - 1,
                                 (int64_t)q,
                                 -(int64_t)q,
                                 -(int64_t)q + 1,
                                 INT64_MIN,
                                 INT64_MIN + 1,
                                 INT64_MAX};
        for (int64_t x : edges)
            EXPECT_EQ(br.reduceSigned(x), refSignedMod(x, q))
                << "x=" << x << " q=" << q;
        for (int it = 0; it < 2000; ++it) {
            // Full-range words, and centered lifts |x| < 2^31.
            const int64_t wide = static_cast<int64_t>(rng.next());
            ASSERT_EQ(br.reduceSigned(wide), refSignedMod(wide, q))
                << "x=" << wide << " q=" << q;
            const int64_t lift =
                static_cast<int64_t>(rng.uniform(uint64_t(1) << 32)) -
                (int64_t(1) << 31);
            ASSERT_EQ(br.reduceSigned(lift), refSignedMod(lift, q))
                << "x=" << lift << " q=" << q;
        }
    }
}

TEST(Primes, MillerRabinKnownValues)
{
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_TRUE(isPrime(65537));
    EXPECT_TRUE(isPrime(2147483647ULL)); // 2^31 - 1
    EXPECT_TRUE(isPrime(0xffffffff00000001ULL)); // Goldilocks
    EXPECT_FALSE(isPrime(1));
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(65536));
    EXPECT_FALSE(isPrime(3215031751ULL)); // strong pseudoprime to 2,3,5,7
    EXPECT_FALSE(isPrime((uint64_t)2147483647 * 2147483629));
}

TEST(Primes, GeneratedPrimesSatisfyCongruences)
{
    for (uint32_t n : {1024u, 4096u, 16384u}) {
        auto primes = generateNttPrimes(8, 28, n);
        ASSERT_EQ(primes.size(), 8u);
        for (uint32_t q : primes) {
            EXPECT_TRUE(isPrime(q));
            EXPECT_EQ((q - 1) % (2 * n), 0u) << q;
            EXPECT_EQ(q % (1u << 16), 1u) << q; // FHE-friendly
            EXPECT_GE(q, 1u << 27);
            EXPECT_LT(q, 1u << 28);
        }
        // Distinct.
        std::set<uint32_t> s(primes.begin(), primes.end());
        EXPECT_EQ(s.size(), primes.size());
    }
}

TEST(Primes, AvoidListRespected)
{
    auto first = generateNttPrimes(4, 28, 2048);
    auto second = generateNttPrimes(4, 28, 2048, first);
    for (uint32_t q : second)
        EXPECT_EQ(std::count(first.begin(), first.end(), q), 0);
}

TEST(Primes, PrimitiveRootHasExactOrder)
{
    const uint32_t n = 4096;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    uint32_t root = primitiveRootOfUnity(2 * n, q);
    EXPECT_EQ(powMod(root, 2 * n, q), 1u);
    EXPECT_EQ(powMod(root, n, q), q - 1); // ψ^N = -1 (negacyclic)
}

TEST(Primes, FheFriendlyPrimeCountIsLarge)
{
    // Paper §5.3: ~6,186 32-bit primes satisfy the restriction. We
    // count 24-bit primes (fast) and check density is as expected.
    size_t count = countFheFriendlyPrimes(24);
    EXPECT_GT(count, 5u);
}

} // namespace
} // namespace f1
