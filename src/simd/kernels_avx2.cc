#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/random.h"
#include "hash/hashed_batch.h"
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
  // Start from the scalar table: entries whose AVX2 form did not beat it
  // at any caller shape (hll_ingest, hll_update_hashes, murmur3_batch_u64,
  // cm_blocked_add, the blocked Bloom loops) share the reference
  // implementation.
  static const SimdKernels table = [] {
    SimdKernels t = ScalarKernels();
    t.name = "avx2";
    t.mix64_batch = &Mix64Batch;
    t.mix64_min = &Mix64Min;
    t.mod61_poly_eval = &Mod61PolyEval;
    t.u8_max = &U8Max;
    t.hll_harmonic_sum = &HllHarmonicSum;
    t.cm_row_add = &CmRowAdd;
    t.cm_row_add_weighted = &CmRowAddWeighted;
    t.cm_row_min = &CmRowMin;
    t.i64_sum_squares = &I64SumSquares;
    t.bloom_query = &BloomQuery;
    t.u64_min = &U64Min;
    t.u64_add = &U64Add;
    t.i64_add = &I64Add;
    return t;
  }();
  return &table;
}

}  // namespace gems::simd

#endif  // x86-64
