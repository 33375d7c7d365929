/**
 * @file
 * F1's high-level DSL (paper §4.1, Listing 2): programs are dataflow
 * graphs of homomorphic operations on ciphertext handles. The DSL
 * exposes the FHE interface (add, multiply, rotate) plus the one
 * implementation detail the paper keeps (the noise budget L); the
 * compiler handles everything below.
 */
#ifndef F1_COMPILER_PROGRAM_H
#define F1_COMPILER_PROGRAM_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "fhe/keyswitch.h"

namespace f1 {

enum class HeOpKind : uint8_t {
    kInput,      //!< encrypted program input
    kInputPlain, //!< unencrypted operand (e.g. model weights)
    kAdd,
    kSub,
    kAddPlain,
    kMulPlain,
    kMul,        //!< ciphertext x ciphertext (tensor + key switch)
    kRotate,     //!< slot rotation (automorphism + key switch)
    kConjugate,
    kModSwitch,  //!< BGV modulus switch / CKKS rescale
    kOutput,
};

struct HeOp
{
    HeOpKind kind;
    int a = -1, b = -1;   //!< operand handles
    int64_t rotateBy = 0;
    uint32_t level = 0;   //!< residues carried by the result
    int hintId = -1;      //!< key-switch hint identity (reuse tracking)
    KeySwitchVariant variant = KeySwitchVariant::kDigitLxL;
};

/** A homomorphic program: the unit the F1 compiler consumes. */
class Program
{
  public:
    /**
     * @param n           polynomial degree
     * @param start_level L at the program entry (Listing 2's L=16)
     */
    Program(uint32_t n, uint32_t start_level, std::string name = "")
        : n_(n), startLevel_(start_level), name_(std::move(name))
    {
    }

    uint32_t n() const { return n_; }
    uint32_t startLevel() const { return startLevel_; }
    const std::string &name() const { return name_; }
    const std::vector<HeOp> &ops() const { return ops_; }
    uint32_t auxCount() const { return auxCount_; }

    /** Aux primes available to GHS key-switching (0 = digit only). */
    void setAuxCount(uint32_t k) { auxCount_ = k; }

    int input() { return push({HeOpKind::kInput, -1, -1, 0,
                               startLevel_}); }
    int inputPlain() { return push({HeOpKind::kInputPlain, -1, -1, 0,
                                    startLevel_}); }
    int inputPlainAt(uint32_t level)
    {
        return push({HeOpKind::kInputPlain, -1, -1, 0, level});
    }

    int
    add(int a, int b)
    {
        matchLevels(a, b);
        return push({HeOpKind::kAdd, a, b, 0, ops_[a].level});
    }

    int
    sub(int a, int b)
    {
        matchLevels(a, b);
        return push({HeOpKind::kSub, a, b, 0, ops_[a].level});
    }

    int
    addPlain(int a, int pt)
    {
        return push({HeOpKind::kAddPlain, a, pt, 0, ops_[a].level});
    }

    int
    mulPlain(int a, int pt)
    {
        return push({HeOpKind::kMulPlain, a, pt, 0, ops_[a].level});
    }

    int
    mul(int a, int b)
    {
        matchLevels(a, b);
        HeOp op{HeOpKind::kMul, a, b, 0, ops_[a].level};
        op.hintId = hintFor(/*rotation=*/INT64_MIN, op.level);
        return push(op);
    }

    int
    rotate(int a, int64_t r)
    {
        HeOp op{HeOpKind::kRotate, a, -1, r, ops_[a].level};
        op.hintId = hintFor(r, op.level);
        return push(op);
    }

    int
    conjugate(int a)
    {
        HeOp op{HeOpKind::kConjugate, a, -1, 0, ops_[a].level};
        op.hintId = hintFor(INT64_MAX, op.level);
        return push(op);
    }

    int
    modSwitch(int a)
    {
        F1_REQUIRE(ops_[a].level >= 2, "cannot drop below one level");
        return push({HeOpKind::kModSwitch, a, -1, 0,
                     ops_[a].level - 1});
    }

    int output(int a)
    {
        return push({HeOpKind::kOutput, a, -1, 0, ops_[a].level});
    }

    /**
     * Appends an op verbatim, without the builder's level checks or
     * hint bookkeeping — the entry point for deserializers and
     * generated frontends. Unlike the builder methods, operands may
     * reference handles appended later (forward references); the
     * op-graph executor topologically sorts at graph build and rejects
     * cycles with a diagnostic naming the offending handles.
     */
    int pushRaw(HeOp op) { return push(op); }

    size_t hintCount() const { return hintIds_.size(); }

    /** Number of ops using each hint (reuse statistics, §4.2). */
    std::map<int, size_t> hintUseCounts() const;

    /**
     * Content-addressed fingerprint of the program's structure: ring
     * degree, entry level, aux primes, and every op's (kind, operands,
     * rotation, level, variant). Two Program objects with equal
     * fingerprints execute identically on identical inputs, whatever
     * their names or addresses — the program key of the flight
     * recorder's serving events.
     * The name is deliberately excluded; hintId is derived from the
     * ops and needs no separate folding.
     */
    uint64_t fingerprint() const;

  private:
    int
    push(HeOp op)
    {
        ops_.push_back(op);
        return static_cast<int>(ops_.size() - 1);
    }

    void
    matchLevels(int a, int b) const
    {
        F1_REQUIRE(ops_[a].level == ops_[b].level,
                   "operand level mismatch: " << ops_[a].level << " vs "
                   << ops_[b].level
                   << " (modSwitch operands in lockstep)");
    }

    /** Hint identity for (rotation key, level). */
    int
    hintFor(int64_t key, uint32_t level)
    {
        auto k = std::make_pair(key, level);
        auto it = hintIds_.find(k);
        if (it == hintIds_.end())
            it = hintIds_.emplace(k, (int)hintIds_.size()).first;
        return it->second;
    }

    uint32_t n_;
    uint32_t startLevel_;
    uint32_t auxCount_ = 0;
    std::string name_;
    std::vector<HeOp> ops_;
    std::map<std::pair<int64_t, uint32_t>, int> hintIds_;
};

} // namespace f1

#endif // F1_COMPILER_PROGRAM_H
