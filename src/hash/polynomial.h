#ifndef GEMS_HASH_POLYNOMIAL_H_
#define GEMS_HASH_POLYNOMIAL_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

/// \file
/// k-wise independent polynomial hashing over the Mersenne prime
/// p = 2^61 - 1 (Carter-Wegman). A degree-(k-1) polynomial with random
/// coefficients evaluated at the key gives a k-wise independent family —
/// the independence grade the AMS and Count sketch analyses assume
/// (2-wise for bucket choice, 4-wise for the Rademacher signs).

namespace gems {

/// A single hash function drawn from a k-wise independent family.
class KWiseHash {
 public:
  /// Draws random coefficients for a (k-1)-degree polynomial using `seed`.
  /// `k` >= 1; the leading coefficient is forced non-zero.
  KWiseHash(int k, uint64_t seed);

  /// A fixed polynomial: c_0 .. c_{k-1}, low degree first, each < kPrime
  /// (k >= 1). Lets differential tests pin edge-case coefficients.
  explicit KWiseHash(std::vector<uint64_t> coefficients);

  KWiseHash(const KWiseHash&) = default;
  KWiseHash& operator=(const KWiseHash&) = default;
  KWiseHash(KWiseHash&&) = default;
  KWiseHash& operator=(KWiseHash&&) = default;

  /// Evaluates the polynomial at `key`; result uniform in [0, 2^61 - 1).
  uint64_t Eval(uint64_t key) const;

  /// Reduces a key into the field [0, p). Batch kernels that evaluate
  /// several polynomials at the same key (e.g. Count sketch's bucket and
  /// sign hashes across every row) hoist this one division out and feed
  /// the reduced key to EvalReduced.
  static uint64_t ReduceKey(uint64_t key) { return key % kPrime; }

  /// Eval for a key already reduced via ReduceKey; Eval(key) ==
  /// EvalReduced(ReduceKey(key)) exactly. Defined inline so hot batch
  /// loops keep the Horner recurrence in registers instead of paying a
  /// function call per probe.
  uint64_t EvalReduced(uint64_t x) const {
    uint64_t acc = coefficients_.back();
    for (size_t i = coefficients_.size() - 1; i-- > 0;) {
      acc = AddMod(MulMod(acc, x), coefficients_[i]);
    }
    return acc;
  }

  /// Eval mapped to [0, range) by a plain `% range`; no residue is more
  /// likely than another by more than a relative range / p.
  uint64_t EvalRange(uint64_t key, uint64_t range) const {
    return Eval(key) % range;
  }

  /// Eval mapped to [0, 1).
  double EvalUnit(uint64_t key) const;

  /// Rademacher +1/-1 from the low bit of an independent evaluation.
  int EvalSign(uint64_t key) const { return (Eval(key) & 1) ? 1 : -1; }

  /// `w` times EvalSign's sign for a hash value `eval`: unchanged when its
  /// low bit is set, negated when clear, in wrapping unsigned arithmetic.
  /// Branch-free on purpose: the bit is a fair coin, so the branch GCC's
  /// -O3 path splitting makes of `bit ? w : -w` mispredicts half the time
  /// (measured: 2x slower CountSketch(2048, 5) batch ingest with g++ 12).
  static uint64_t ApplySign(uint64_t eval, uint64_t w) {
    const uint64_t negate = (eval & 1) - 1;  // All ones iff the bit is clear.
    return (w ^ negate) - negate;
  }

  int k() const { return static_cast<int>(coefficients_.size()); }

  /// c_0 .. c_{k-1}, low degree first, each < kPrime: the operand layout of
  /// the simd::SimdKernels::mod61_poly_eval batch kernel.
  const uint64_t* coefficients() const { return coefficients_.data(); }

  /// The Mersenne prime modulus 2^61 - 1.
  static constexpr uint64_t kPrime = (uint64_t{1} << 61) - 1;

 private:
  // (a * b) mod (2^61 - 1) using a 128-bit intermediate; 2^61 ≡ 1 (mod p).
  static uint64_t MulMod(uint64_t a, uint64_t b) {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
    const uint64_t low = static_cast<uint64_t>(product & kPrime);
    const uint64_t high = static_cast<uint64_t>(product >> 61);
    uint64_t sum = low + high;
    if (sum >= kPrime) sum -= kPrime;
    return sum;
  }

  static uint64_t AddMod(uint64_t a, uint64_t b) {
    uint64_t sum = a + b;  // Both < 2^61, no overflow in 64 bits.
    if (sum >= kPrime) sum -= kPrime;
    return sum;
  }

  std::vector<uint64_t> coefficients_;  // c_0 .. c_{k-1}, low degree first.
};

}  // namespace gems

#endif  // GEMS_HASH_POLYNOMIAL_H_
