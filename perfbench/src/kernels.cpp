/**
 * @file
 * Per-layer kernel probes of the traced run: HE ops (fhe), NTT and
 * automorphism (poly), limb-parallel NTT batches (common/parallel),
 * and the modular multiply (modular), all at the workload's ring
 * degree and top level. Every probe is single-threaded except the
 * parallel half of poly.ntt_batch_speedup.
 */
#include <cmath>

#include "bench.h"
#include "common/parallel.h"
#include "fhe/bgv.h"
#include "fhe/ckks.h"
#include "modular/modarith.h"
#include "poly/automorphism.h"

namespace perfbench {

namespace {

/** Median per-call time (us) of fn over `samples` samples of at
 *  least `minSampleMs` each, so short calls are batched. */
template <typename F>
double
perCallUs(const std::string &span, F &&fn, double minSampleMs = 4,
          int samples = 9)
{
    double t0 = nowMs();
    fn();
    const double first = std::max(nowMs() - t0, 1e-4);
    const int k = std::max(1, int(std::ceil(minSampleMs / first)));
    std::vector<double> per;
    for (int s = 0; s < samples; ++s) {
        SpanScope sp(span);
        t0 = nowMs();
        for (int i = 0; i < k; ++i)
            fn();
        per.push_back((nowMs() - t0) * 1e3 / k);
    }
    return median(std::move(per));
}

} // namespace

void
reportKernelLayers(Report &rep, f1::BgvScheme *bgv, f1::CkksScheme *ckks,
                   size_t level)
{
    const f1::FheContext *ctx = bgv ? bgv->context() : ckks->context();
    const uint32_t n = ctx->n();
    f1::Rng rng(0xbe7c4);

    {
        f1::InlineParallelScope inlineOnly;
        double add, mulPlain, mul, rotate, modSwitch, encode, encrypt,
            decrypt;
        if (bgv) {
            const uint64_t t = bgv->plainModulus();
            const auto slots = rng.uniformVector(n, t);
            const auto coeffs = bgv->encoder().encodeSlots(slots);
            f1::Ciphertext a = bgv->encryptSlots(slots, level, rng);
            f1::Ciphertext b = bgv->encryptSlots(slots, level, rng);
            bgv->relinHintShared(level);
            bgv->galoisHintShared(
                bgv->encoder().slotOrder().rotationGalois(1), level);
            f1::Ciphertext sink;
            add = perCallUs("fhe.add", [&] { sink = bgv->add(a, b); });
            mulPlain = perCallUs("fhe.mul_plain",
                                 [&] { sink = bgv->mulPlain(a, coeffs); });
            mul = perCallUs("fhe.mul", [&] { sink = bgv->mul(a, b); });
            rotate = perCallUs("fhe.rotate",
                               [&] { sink = bgv->rotate(a, 1); });
            modSwitch = perCallUs("fhe.mod_switch",
                                  [&] { sink = bgv->modSwitch(a); });
            encode = perCallUs("fhe.encode", [&] {
                auto e = bgv->encoder().encodeSlots(slots);
                (void)e;
            });
            encrypt = perCallUs("fhe.encrypt", [&] {
                sink = bgv->encryptSlots(slots, level, rng);
            });
            decrypt = perCallUs("fhe.decrypt", [&] {
                auto d = bgv->decryptSlots(a);
                (void)d;
            });
        } else {
            std::vector<std::complex<double>> slots(n / 2);
            for (auto &s : slots)
                s = {rng.uniformReal(-1, 1), 0.0};
            const double scale = ckks->defaultScale();
            const f1::RnsPoly pt = ckks->encoder().encode(slots, scale, level);
            f1::Ciphertext a = ckks->encrypt(slots, level, rng);
            f1::Ciphertext b = ckks->encrypt(slots, level, rng);
            ckks->relinHintShared(level);
            ckks->galoisHintShared(
                ckks->encoder().slotOrder().rotationGalois(1), level);
            f1::Ciphertext sink;
            add = perCallUs("fhe.add", [&] { sink = ckks->add(a, b); });
            mulPlain = perCallUs("fhe.mul_plain", [&] {
                sink = ckks->mulPlainEncoded(a, pt);
            });
            mul = perCallUs("fhe.mul", [&] { sink = ckks->mul(a, b); });
            rotate = perCallUs("fhe.rotate",
                               [&] { sink = ckks->rotate(a, 1); });
            modSwitch = perCallUs("fhe.mod_switch",
                                  [&] { sink = ckks->rescale(a); });
            encode = perCallUs("fhe.encode", [&] {
                auto e = ckks->encoder().encode(slots, scale, level);
                (void)e;
            });
            encrypt = perCallUs("fhe.encrypt", [&] {
                sink = ckks->encrypt(slots, level, rng);
            });
            decrypt = perCallUs("fhe.decrypt", [&] {
                auto d = ckks->decrypt(a);
                (void)d;
            });
        }
        rep.add("fhe.add_us", add, "us");
        rep.add("fhe.mul_plain_us", mulPlain, "us");
        rep.add("fhe.mul_us", mul, "us");
        rep.add("fhe.rotate_us", rotate, "us");
        rep.add("fhe.mod_switch_us", modSwitch, "us");
        rep.add("fhe.encode_us", encode, "us");
        rep.add("fhe.encrypt_us", encrypt, "us");
        rep.add("fhe.decrypt_us", decrypt, "us");
    }

    const f1::PolyContext *pc = ctx->polyContext();
    const f1::NttTables &tables = pc->tables(0);
    const uint32_t q = tables.q();
    std::vector<uint32_t> a(n), out(n);
    for (auto &x : a)
        x = uint32_t(rng.uniform(q));
    {
        f1::InlineParallelScope inlineOnly;
        rep.add("poly.ntt_fwd_us",
                perCallUs("poly.ntt_fwd", [&] { tables.forward(a); }), "us");
        rep.add("poly.ntt_inv_us",
                perCallUs("poly.ntt_inv", [&] { tables.inverse(a); }), "us");
        rep.add("poly.automorphism_us",
                perCallUs("poly.automorphism",
                          [&] { f1::automorphismNtt(a, out, 5); }),
                "us");

        // Element-wise modular multiply, the operation RnsPoly::mulEq
        // applies per coefficient.
        std::vector<uint32_t> b(4096), c(4096), d(4096);
        for (size_t i = 0; i < b.size(); ++i) {
            b[i] = uint32_t(rng.uniform(q));
            c[i] = uint32_t(rng.uniform(q));
        }
        const double us = perCallUs("modular.mulmod", [&] {
            for (size_t i = 0; i < b.size(); ++i)
                d[i] = f1::mulMod(b[i], c[i], q);
            b[0] = d[b.size() - 1]; // carry a dependence across calls
        });
        rep.add("modular.mulmod_ns", us * 1e3 / double(b.size()), "ns");
    }

    // Limb-parallel batch: a level-limb polynomial through INTT + NTT,
    // inline on one thread versus spread over the global pool.
    f1::RnsPoly p = f1::RnsPoly::uniform(pc, level, rng);
    auto roundTrip = [&] {
        p.toCoeff();
        p.toNtt();
    };
    double serial;
    {
        f1::InlineParallelScope inlineOnly;
        serial = perCallUs("poly.ntt_batch.serial", roundTrip);
    }
    const double pooled = perCallUs("poly.ntt_batch.pool", roundTrip);
    rep.add("poly.ntt_batch_speedup", serial / pooled, "ratio");
}

} // namespace perfbench
