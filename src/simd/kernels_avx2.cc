#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/bits.h"
#include "common/random.h"
#include "hash/hashed_batch.h"
#include "hash/murmur3.h"
#include "simd/internal.h"
#include "simd/kernels.h"

/// \file
/// AVX2 kernel variants. This TU is the only one compiled with -mavx2 (see
/// src/simd/CMakeLists.txt); dispatch.cc checks __builtin_cpu_supports
/// before handing out this table, so nothing here runs on a CPU without
/// AVX2. Every function must be bit-identical to kernels_scalar.cc.
///
/// AVX2 has no 64x64->64 multiply and no 64-bit unsigned compare, so the
/// mixing kernels emulate both: the multiply from three 32x32->64 products
/// (pmuludq) plus shifts, the unsigned compare by biasing both sides with
/// 2^63 before the signed compare. Scatter-style loops (register max,
/// counter adds, bit sets) stay scalar — duplicate indices inside a vector
/// carry a sequential dependency — so the strategy throughout is: vectorize
/// the arithmetic (hash, modulo, probe math), extract, then do the few
/// scalar stores.

namespace gems::simd {
namespace {

using internal::BlockedBloomProbe;
using internal::BlockedBloomTest;
using internal::kBlockedBloomWordsPerBlock;

inline __m256i Splat64(uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

/// Lane-wise a * b keeping the low 64 bits (pmuludq cross products).
inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Lane-wise rotate left.
inline __m256i RotL64(__m256i x, int r) {
  return _mm256_or_si256(_mm256_slli_epi64(x, r),
                         _mm256_srli_epi64(x, 64 - r));
}

/// Lane-wise unsigned a > b (bias both sides into signed range).
inline __m256i CmpGtU64(__m256i a, __m256i b) {
  const __m256i bias = Splat64(0x8000000000000000ULL);
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                            _mm256_xor_si256(b, bias));
}

/// Lane-wise unsigned min.
inline __m256i MinU64(__m256i a, __m256i b) {
  // Where a > b take b, else a.
  return _mm256_blendv_epi8(a, b, CmpGtU64(a, b));
}

/// Four lanes of Mix64 (the SplitMix64 finalizer), bit-identical to the
/// scalar gems::Mix64.
inline __m256i Mix64V(__m256i x) {
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            Splat64(0xBF58476D1CE4E5B9ULL));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            Splat64(0x94D049BB133111EBULL));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// Four lanes of Murmur3's FMix64 finalizer.
inline __m256i FMix64V(__m256i k) {
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = Mul64(k, Splat64(0xFF51AFD7ED558CCDULL));
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = Mul64(k, Splat64(0xC4CEB9FE1A85EC53ULL));
  return _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
}

/// Four lanes of Murmur3_128_U64: lo/hi halves for keys[0..3].
inline void Murmur3x4(__m256i keys, uint64_t seed, __m256i* lo, __m256i* hi) {
  const __m256i seedv = Splat64(seed);
  __m256i k1 = Mul64(keys, Splat64(murmur3_detail::kC1));
  k1 = RotL64(k1, 31);
  k1 = Mul64(k1, Splat64(murmur3_detail::kC2));
  __m256i h1 = _mm256_xor_si256(seedv, k1);
  __m256i h2 = seedv;
  // Finalize(h1, seed, len=8).
  const __m256i len = Splat64(8);
  h1 = _mm256_xor_si256(h1, len);
  h2 = _mm256_xor_si256(h2, len);
  h1 = _mm256_add_epi64(h1, h2);
  h2 = _mm256_add_epi64(h2, h1);
  h1 = FMix64V(h1);
  h2 = FMix64V(h2);
  h1 = _mm256_add_epi64(h1, h2);
  h2 = _mm256_add_epi64(h2, h1);
  *lo = h1;
  *hi = h2;
}

/// Vector Granlund-Montgomery modulo with the exact same math as
/// InvariantMod: q = mulhi64(magic, x), r = x - q*d, one correction.
struct VecMod {
  explicit VecMod(uint64_t divisor)
      : scalar(divisor),
        d(Splat64(divisor)),
        pow2((divisor & (divisor - 1)) == 0),
        mask(Splat64(divisor - 1)) {
    const uint64_t magic = pow2 ? 0 : ~uint64_t{0} / divisor;
    magic_lo = Splat64(magic & 0xFFFFFFFFULL);
    magic_hi = Splat64(magic >> 32);
  }

  __m256i operator()(__m256i x) const {
    if (pow2) return _mm256_and_si256(x, mask);
    // mulhi64(x, magic) out of four pmuludq partial products.
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i lolo = _mm256_mul_epu32(x, magic_lo);
    const __m256i hilo = _mm256_mul_epu32(x_hi, magic_lo);
    const __m256i lohi = _mm256_mul_epu32(x, magic_hi);
    const __m256i hihi = _mm256_mul_epu32(x_hi, magic_hi);
    const __m256i low_mask = Splat64(0xFFFFFFFFULL);
    const __m256i t = _mm256_srli_epi64(lolo, 32);
    const __m256i u = _mm256_add_epi64(hilo, t);
    const __m256i v =
        _mm256_add_epi64(lohi, _mm256_and_si256(u, low_mask));
    const __m256i q = _mm256_add_epi64(
        hihi, _mm256_add_epi64(_mm256_srli_epi64(u, 32),
                               _mm256_srli_epi64(v, 32)));
    __m256i r = _mm256_sub_epi64(x, Mul64(q, d));
    // If r >= d subtract d once: correction is d wherever NOT (d > r).
    const __m256i lt = CmpGtU64(d, r);
    return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, d));
  }

  InvariantMod scalar;  // for tails, bit-identical by shared contract
  __m256i d;
  bool pow2;
  __m256i mask;
  __m256i magic_lo;
  __m256i magic_hi;
};

// ------------------------------------------------------------------- hash

void Mix64Batch(const uint64_t* keys, size_t n, uint64_t mixed_seed,
                uint64_t* out) {
  const __m256i seedv = Splat64(mixed_seed);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        Mix64V(_mm256_add_epi64(a, seedv)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                        Mix64V(_mm256_add_epi64(b, seedv)));
  }
  for (; i < n; ++i) out[i] = Mix64(keys[i] + mixed_seed);
}

uint64_t Mix64Min(const uint64_t* keys, size_t n, uint64_t mixed_seed) {
  uint64_t best = ~uint64_t{0};
  const __m256i seedv = Splat64(mixed_seed);
  size_t i = 0;
  if (n >= 4) {
    __m256i bestv = Splat64(~uint64_t{0});
    for (; i + 4 <= n; i += 4) {
      const __m256i k = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys + i));
      bestv = MinU64(bestv, Mix64V(_mm256_add_epi64(k, seedv)));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), bestv);
    for (uint64_t lane : lanes) best = std::min(best, lane);
  }
  for (; i < n; ++i) best = std::min(best, Mix64(keys[i] + mixed_seed));
  return best;
}

void Murmur3BatchU64(const uint64_t* keys, size_t n, uint64_t seed,
                     uint64_t* lo, uint64_t* hi) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    __m256i l, h;
    Murmur3x4(k, seed, &l, &h);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo + i), l);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi + i), h);
  }
  for (; i < n; ++i) {
    const Hash128 h = Murmur3_128_U64(keys[i], seed);
    lo[i] = h.low;
    hi[i] = h.high;
  }
}

/// Four lanes of (a * b + c) mod p, p = 2^61 - 1, for a, b, c < p, with b
/// given as its 32-bit limbs. The same four-product fold as the AVX-512
/// MulAddMod61V8 (see there for the bounds); it ends at s <= p + 4 < 2^62,
/// where the signed compare is exact, so a blend stands in for the missing
/// unsigned min.
inline __m256i MulAddMod61V4(__m256i a, __m256i b_lo, __m256i b_hi,
                             __m256i c) {
  const __m256i p = Splat64(internal::kMersenne61);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i ll = _mm256_mul_epu32(a, b_lo);
  const __m256i mid =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b_lo));
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  __m256i s = _mm256_add_epi64(_mm256_slli_epi64(hh, 3),
                               _mm256_srli_epi64(mid, 29));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(mid, Splat64((1u << 29) - 1)), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(ll, 61));
  s = _mm256_add_epi64(s, _mm256_and_si256(ll, p));
  s = _mm256_add_epi64(s, c);
  s = _mm256_add_epi64(_mm256_and_si256(s, p), _mm256_srli_epi64(s, 61));
  return _mm256_blendv_epi8(_mm256_sub_epi64(s, p), s,
                            _mm256_cmpgt_epi64(p, s));
}

void Mod61PolyEval(const uint64_t* x, size_t n, const uint64_t* coeffs, int k,
                   uint64_t* out) {
  size_t i = 0;
  // Two independent four-key chains per step keep the multiplier busy.
  for (; i + 8 <= n; i += 8) {
    const __m256i xa =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i xb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 4));
    const __m256i xa_hi = _mm256_srli_epi64(xa, 32);
    const __m256i xb_hi = _mm256_srli_epi64(xb, 32);
    __m256i a = Splat64(coeffs[k - 1]);
    __m256i b = a;
    for (int j = k - 1; j-- > 0;) {
      const __m256i c = Splat64(coeffs[j]);
      a = MulAddMod61V4(a, xa, xa_hi, c);
      b = MulAddMod61V4(b, xb, xb_hi, c);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), b);
  }
  for (; i < n; ++i) out[i] = internal::Mod61Horner(x[i], coeffs, k);
}

// ------------------------------------------------------------ cardinality

void HllIngest(uint8_t* regs, int precision, const uint64_t* keys, size_t n,
               uint64_t mixed_seed) {
  const int shift = 64 - precision;
  const __m256i seedv = Splat64(mixed_seed);
  const __m128i shiftc = _mm_cvtsi32_si128(shift);
  const __m256i low_mask = Splat64((uint64_t{1} << shift) - 1);
  const __m256i lo32_mask = Splat64(0xFFFFFFFFull);
  const __m256i zero = _mm256_setzero_si256();
  // 0x433... is 2^52's bit pattern: OR-ing a value < 2^32 into it and
  // subtracting 2^52 as a double yields that value *exactly* as a double,
  // whose exponent field is 1023 + FloorLog2(value) (0 when value == 0).
  // This is an exact vector FloorLog2 — no rounding is possible because
  // every input fits in the 52-bit mantissa — applied to whichever 32-bit
  // half of the masked hash holds the leading one bit.
  const __m256i magic = Splat64(0x4330000000000000ull);
  const __m256i bias = Splat64(1023);
  const __m256i thirty_two = Splat64(32);
  const __m256i shift_v = Splat64(static_cast<uint64_t>(shift));
  const __m256i rho_cap = Splat64(static_cast<uint64_t>(shift) + 1);

  // One packed word per key: (index << 8) | rho. Everything up to the
  // register max is vector math; only the max itself runs scalar, because
  // duplicate indices within a block make a gathered max lose updates.
  const auto packed_rho_idx = [&](__m256i h) {
    const __m256i idx = _mm256_srl_epi64(h, shiftc);
    const __m256i v = _mm256_and_si256(h, low_mask);
    const __m256i hi = _mm256_srli_epi64(v, 32);
    const __m256i hi_zero = _mm256_cmpeq_epi64(hi, zero);
    const __m256i x =
        _mm256_blendv_epi8(hi, _mm256_and_si256(v, lo32_mask), hi_zero);
    const __m256d d = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(x, magic)),
        _mm256_castsi256_pd(magic));
    __m256i floor_log2 =
        _mm256_sub_epi64(_mm256_srli_epi64(_mm256_castpd_si256(d), 52), bias);
    floor_log2 = _mm256_add_epi64(floor_log2,
                                  _mm256_andnot_si256(hi_zero, thirty_two));
    // rho = shift - FloorLog2(v); v == 0 left floor_log2 at -1023, so the
    // unsigned min supplies the shift+1 "all low bits clear" answer. Lanes
    // stay in [1, shift+1023], high halves zero, so a 32-bit min is safe.
    const __m256i rho = _mm256_min_epu32(_mm256_sub_epi64(shift_v, floor_log2),
                                         rho_cap);
    return _mm256_or_si256(_mm256_slli_epi64(idx, 8), rho);
  };

  alignas(32) uint64_t packed[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i + 4));
    _mm256_store_si256(reinterpret_cast<__m256i*>(packed),
                       packed_rho_idx(Mix64V(_mm256_add_epi64(a, seedv))));
    _mm256_store_si256(reinterpret_cast<__m256i*>(packed + 4),
                       packed_rho_idx(Mix64V(_mm256_add_epi64(b, seedv))));
    for (int j = 0; j < 8; ++j) {
      const uint64_t w = packed[j];
      const uint8_t rho = static_cast<uint8_t>(w);
      uint8_t* reg = regs + (w >> 8);
      // Conditional store: registers saturate fast, so the branch predicts
      // not-taken and repeated same-index updates skip the store entirely.
      if (rho > *reg) *reg = rho;
    }
  }
  for (; i < n; ++i) {
    const uint64_t hash = Mix64(keys[i] + mixed_seed);
    const uint32_t index = static_cast<uint32_t>(hash >> shift);
    const uint8_t rho = static_cast<uint8_t>(RankOfLeftmostOne(hash, shift));
    regs[index] = std::max(regs[index], rho);
  }
}

void U8Max(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_max_epu8(a, b));
  }
  for (; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

void HllHarmonicSum(const uint8_t* regs, size_t n, double* sum,
                    uint32_t* zeros) {
  // One vector accumulator IS the four stripes: lane j sums elements with
  // index ≡ j (mod 4) in increasing order, exactly the scalar reference's
  // s[i & 3] schedule, so the additions associate identically.
  __m256d acc = _mm256_setzero_pd();
  __m256i zero_count = _mm256_setzero_si256();
  const __m256i izero = _mm256_setzero_si256();
  const __m256i bias = Splat64(1023);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t packed;
    __builtin_memcpy(&packed, regs + i, 4);
    const __m256i r64 = _mm256_cvtepu8_epi64(
        _mm_cvtsi32_si128(static_cast<int>(packed)));
    // 2^-reg as a raw bit pattern: (1023 - reg) << 52.
    const __m256i bits =
        _mm256_slli_epi64(_mm256_sub_epi64(bias, r64), 52);
    acc = _mm256_add_pd(acc, _mm256_castsi256_pd(bits));
    zero_count =
        _mm256_sub_epi64(zero_count, _mm256_cmpeq_epi64(r64, izero));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  alignas(32) uint64_t zc[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(zc), zero_count);
  uint32_t z = static_cast<uint32_t>(zc[0] + zc[1] + zc[2] + zc[3]);
  for (; i < n; ++i) {
    const uint8_t reg = regs[i];
    s[i & 3] += internal::Pow2Neg(reg);
    z += (reg == 0) ? 1 : 0;
  }
  *sum = (s[0] + s[1]) + (s[2] + s[3]);
  *zeros = z;
}

// -------------------------------------------------------------- frequency

void CmRowAdd(uint64_t* row, uint64_t width, const uint64_t* hashes,
              size_t n) {
  const VecMod mod(width);
  alignas(32) uint64_t idx[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(hashes + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), mod(h));
    row[idx[0]] += 1;
    row[idx[1]] += 1;
    row[idx[2]] += 1;
    row[idx[3]] += 1;
  }
  for (; i < n; ++i) row[mod.scalar(hashes[i])] += 1;
}

void CmRowAddWeighted(uint64_t* row, uint64_t width, const uint64_t* hashes,
                      const int64_t* weights, size_t n) {
  const VecMod mod(width);
  alignas(32) uint64_t idx[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(hashes + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), mod(h));
    row[idx[0]] += static_cast<uint64_t>(weights[i]);
    row[idx[1]] += static_cast<uint64_t>(weights[i + 1]);
    row[idx[2]] += static_cast<uint64_t>(weights[i + 2]);
    row[idx[3]] += static_cast<uint64_t>(weights[i + 3]);
  }
  for (; i < n; ++i) {
    row[mod.scalar(hashes[i])] += static_cast<uint64_t>(weights[i]);
  }
}

void CmRowMin(const uint64_t* row, uint64_t width, const uint64_t* hashes,
              size_t n, uint64_t* out) {
  const VecMod mod(width);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(hashes + i));
    const __m256i counters = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(row), mod(h), 8);
    const __m256i prev = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(out + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        MinU64(prev, counters));
  }
  for (; i < n; ++i) {
    out[i] = std::min(out[i], row[mod.scalar(hashes[i])]);
  }
}

using internal::CmBlockedAddOne;
using internal::CmBlockedMinOne;
using internal::CsBlockedAddOne;
using internal::kCmBlockSlots;

/// Hash + block-select phase shared by the blocked frequency kernels:
/// 4-wide Murmur3 and vector modulo into the chunk-local blocks/probes
/// arrays, scalar tail bit-identical by the shared InvariantMod contract.
inline void CmHashBlocksChunk(const uint64_t* keys, size_t len, uint64_t seed,
                              const VecMod& mod, uint64_t* blocks,
                              uint64_t* probes) {
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i key =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    __m256i lo, hi;
    Murmur3x4(key, seed, &lo, &hi);
    _mm256_store_si256(reinterpret_cast<__m256i*>(blocks + i), mod(lo));
    _mm256_store_si256(reinterpret_cast<__m256i*>(probes + i), hi);
  }
  for (; i < len; ++i) {
    const Hash128 h = Murmur3_128_U64(keys[i], seed);
    blocks[i] = mod.scalar(h.low);
    probes[i] = h.high;
  }
}

void CmBlockedAdd(uint64_t* slots, uint64_t num_blocks, uint32_t depth,
                  uint32_t cols, uint64_t seed, const uint64_t* keys,
                  size_t n) {
  const VecMod mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(32) uint64_t blocks[kChunk];
  alignas(32) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    CmHashBlocksChunk(keys + base, len, seed, mod, blocks, probes);
    for (size_t i = 0; i < len; ++i) {
      __builtin_prefetch(&slots[blocks[i] * kCmBlockSlots], 1);
    }
    for (size_t i = 0; i < len; ++i) {
      CmBlockedAddOne(&slots[blocks[i] * kCmBlockSlots], depth, cols,
                      probes[i], 1);
    }
  }
}

void CmBlockedAddWeighted(uint64_t* slots, uint64_t num_blocks, uint32_t depth,
                          uint32_t cols, uint64_t seed, const uint64_t* keys,
                          const int64_t* weights, size_t n) {
  const VecMod mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(32) uint64_t blocks[kChunk];
  alignas(32) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    CmHashBlocksChunk(keys + base, len, seed, mod, blocks, probes);
    for (size_t i = 0; i < len; ++i) {
      __builtin_prefetch(&slots[blocks[i] * kCmBlockSlots], 1);
    }
    for (size_t i = 0; i < len; ++i) {
      CmBlockedAddOne(&slots[blocks[i] * kCmBlockSlots], depth, cols,
                      probes[i], static_cast<uint64_t>(weights[base + i]));
    }
  }
}

void CmBlockedMin(const uint64_t* slots, uint64_t num_blocks, uint32_t depth,
                  uint32_t cols, uint64_t seed, const uint64_t* keys, size_t n,
                  uint64_t* out) {
  const VecMod mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(32) uint64_t blocks[kChunk];
  alignas(32) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    CmHashBlocksChunk(keys + base, len, seed, mod, blocks, probes);
    for (size_t i = 0; i < len; ++i) {
      __builtin_prefetch(&slots[blocks[i] * kCmBlockSlots], 0);
    }
    for (size_t i = 0; i < len; ++i) {
      out[base + i] = CmBlockedMinOne(&slots[blocks[i] * kCmBlockSlots], depth,
                                      cols, probes[i]);
    }
  }
}

void CsBlockedAdd(int64_t* slots, uint64_t num_blocks, uint32_t depth,
                  uint32_t cols, uint64_t seed, const uint64_t* keys,
                  const int64_t* weights, size_t n) {
  const VecMod mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(32) uint64_t blocks[kChunk];
  alignas(32) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    CmHashBlocksChunk(keys + base, len, seed, mod, blocks, probes);
    for (size_t i = 0; i < len; ++i) {
      __builtin_prefetch(&slots[blocks[i] * kCmBlockSlots], 1);
    }
    for (size_t i = 0; i < len; ++i) {
      CsBlockedAddOne(&slots[blocks[i] * kCmBlockSlots], depth, cols,
                      probes[i], weights == nullptr ? 1 : weights[base + i]);
    }
  }
}

double I64SumSquares(const int64_t* values, size_t n) {
  // AVX2 has no packed int64->double conversion; convert lanes through the
  // scalar unit (identical rounding to the reference's cast) and keep the
  // multiply-accumulate vectorized. One accumulator = the four stripes.
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_set_pd(
        static_cast<double>(values[i + 3]), static_cast<double>(values[i + 2]),
        static_cast<double>(values[i + 1]), static_cast<double>(values[i]));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  for (; i < n; ++i) {
    const double v = static_cast<double>(values[i]);
    s[i & 3] += v * v;
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

// ------------------------------------------------------------- membership

void BloomInsert(uint64_t* bits, uint64_t num_bits, int k, const uint64_t* h1,
                 const uint64_t* h2, size_t n) {
  const VecMod mod(num_bits);
  alignas(32) uint64_t idx[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(h1 + i));
    const __m256i step = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(h2 + i));
    for (int j = 0; j < k; ++j) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx), mod(h));
      for (int lane = 0; lane < 4; ++lane) {
        bits[idx[lane] >> 6] |= uint64_t{1} << (idx[lane] & 63);
      }
      h = _mm256_add_epi64(h, step);
    }
  }
  for (; i < n; ++i) {
    uint64_t h = h1[i];
    const uint64_t step = h2[i];
    for (int j = 0; j < k; ++j) {
      const uint64_t bit = mod.scalar(h);
      bits[bit >> 6] |= uint64_t{1} << (bit & 63);
      h += step;
    }
  }
}

void BloomQuery(const uint64_t* bits, uint64_t num_bits, int k,
                const uint64_t* h1, const uint64_t* h2, size_t n,
                uint8_t* out) {
  const VecMod mod(num_bits);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(h1 + i));
    const __m256i step = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(h2 + i));
    const __m256i one = Splat64(1);
    __m256i all_set = one;
    for (int j = 0; j < k; ++j) {
      const __m256i bit = mod(h);
      const __m256i word = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(bits),
          _mm256_srli_epi64(bit, 6), 8);
      // (word >> (bit & 63)) & 1 per lane.
      const __m256i shift = _mm256_and_si256(bit, Splat64(63));
      const __m256i probe =
          _mm256_and_si256(_mm256_srlv_epi64(word, shift), one);
      all_set = _mm256_and_si256(all_set, probe);
      h = _mm256_add_epi64(h, step);
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), all_set);
    out[i] = static_cast<uint8_t>(lanes[0]);
    out[i + 1] = static_cast<uint8_t>(lanes[1]);
    out[i + 2] = static_cast<uint8_t>(lanes[2]);
    out[i + 3] = static_cast<uint8_t>(lanes[3]);
  }
  for (; i < n; ++i) {
    uint64_t h = h1[i];
    const uint64_t step = h2[i];
    uint8_t all_set = 1;
    for (int j = 0; j < k; ++j) {
      const uint64_t bit = mod.scalar(h);
      all_set &= static_cast<uint8_t>((bits[bit >> 6] >> (bit & 63)) & 1);
      h += step;
    }
    out[i] = all_set;
  }
}

void BlockedBloomInsert(uint64_t* words, uint64_t num_blocks, int k,
                        uint64_t seed, const uint64_t* keys, size_t n) {
  const VecMod mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(32) uint64_t blocks[kChunk];
  alignas(32) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    size_t i = 0;
    for (; i + 4 <= len; i += 4) {
      const __m256i key = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys + base + i));
      __m256i lo, hi;
      Murmur3x4(key, seed, &lo, &hi);
      _mm256_store_si256(reinterpret_cast<__m256i*>(blocks + i), mod(lo));
      _mm256_store_si256(reinterpret_cast<__m256i*>(probes + i), hi);
    }
    for (; i < len; ++i) {
      const Hash128 h = Murmur3_128_U64(keys[base + i], seed);
      blocks[i] = mod.scalar(h.low);
      probes[i] = h.high;
    }
    for (i = 0; i < len; ++i) {
      __builtin_prefetch(&words[blocks[i] * kBlockedBloomWordsPerBlock], 1);
    }
    for (i = 0; i < len; ++i) {
      BlockedBloomProbe(&words[blocks[i] * kBlockedBloomWordsPerBlock], k,
                        probes[i]);
    }
  }
}

void BlockedBloomQuery(const uint64_t* words, uint64_t num_blocks, int k,
                       uint64_t seed, const uint64_t* keys, size_t n,
                       uint8_t* out) {
  const VecMod mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(32) uint64_t blocks[kChunk];
  alignas(32) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    size_t i = 0;
    for (; i + 4 <= len; i += 4) {
      const __m256i key = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys + base + i));
      __m256i lo, hi;
      Murmur3x4(key, seed, &lo, &hi);
      _mm256_store_si256(reinterpret_cast<__m256i*>(blocks + i), mod(lo));
      _mm256_store_si256(reinterpret_cast<__m256i*>(probes + i), hi);
    }
    for (; i < len; ++i) {
      const Hash128 h = Murmur3_128_U64(keys[base + i], seed);
      blocks[i] = mod.scalar(h.low);
      probes[i] = h.high;
    }
    for (i = 0; i < len; ++i) {
      __builtin_prefetch(&words[blocks[i] * kBlockedBloomWordsPerBlock], 0);
    }
    for (i = 0; i < len; ++i) {
      out[base + i] = BlockedBloomTest(
          &words[blocks[i] * kBlockedBloomWordsPerBlock], k, probes[i]);
    }
  }
}

// ------------------------------------------------------------ elementwise

void U64Min(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), MinU64(a, b));
  }
  for (; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
}

void U64Or(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void U64Add(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(a, b));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void I64Add(int64_t* dst, const int64_t* src, size_t n) {
  U64Add(reinterpret_cast<uint64_t*>(dst),
         reinterpret_cast<const uint64_t*>(src), n);
}

}  // namespace

const SimdKernels* Avx2Kernels() {
  // Start from the scalar table so loops with no profitable vector form
  // (scatter adds, sorts, the precomputed-hash register pass) share the
  // reference implementation by construction.
  static const SimdKernels table = [] {
    SimdKernels t = ScalarKernels();
    t.name = "avx2";
    t.mix64_batch = &Mix64Batch;
    t.mix64_min = &Mix64Min;
    t.murmur3_batch_u64 = &Murmur3BatchU64;
    t.mod61_poly_eval = &Mod61PolyEval;
    t.hll_ingest = &HllIngest;
    t.u8_max = &U8Max;
    t.hll_harmonic_sum = &HllHarmonicSum;
    t.cm_row_add = &CmRowAdd;
    t.cm_row_add_weighted = &CmRowAddWeighted;
    t.cm_row_min = &CmRowMin;
    t.i64_sum_squares = &I64SumSquares;
    t.cm_blocked_add = &CmBlockedAdd;
    t.cm_blocked_add_weighted = &CmBlockedAddWeighted;
    t.cm_blocked_min = &CmBlockedMin;
    t.cs_blocked_add = &CsBlockedAdd;
    t.bloom_insert = &BloomInsert;
    t.bloom_query = &BloomQuery;
    t.blocked_bloom_insert = &BlockedBloomInsert;
    t.blocked_bloom_query = &BlockedBloomQuery;
    t.u64_min = &U64Min;
    t.u64_or = &U64Or;
    t.u64_add = &U64Add;
    t.i64_add = &I64Add;
    return t;
  }();
  return &table;
}

}  // namespace gems::simd

#endif  // x86-64
