#if defined(__x86_64__) || defined(_M_X64)

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

/// \file
/// AVX-512 kernel variants. This TU is the only one compiled with the
/// -mavx512{f,cd,dq,vl,bw} flags (see src/simd/CMakeLists.txt); dispatch.cc
/// checks __builtin_cpu_supports for every one of those subsets before
/// handing out this table, so nothing here runs on a CPU without them. When
/// the toolchain lacks the flags the stub at the bottom compiles instead
/// and dispatch falls back to the AVX2 table.
///
/// Where AVX2 had to emulate, AVX-512 has the real instruction: vpmullq
/// (64x64->64 multiply, the heart of Mix64/Murmur3), vplzcntq (per-lane
/// leading-zero count, the heart of the HLL rho computation), vpminuq
/// (unsigned 64-bit min) and vcvtqq2pd (int64 -> double). The kernels are
/// therefore shorter than their AVX2 counterparts, not just wider.
///
/// Two bit-identity rules carry over unchanged from kernels_avx2.cc:
/// scatter-style loops (register max, counter adds) stay scalar because
/// duplicate indices inside a vector carry a sequential dependency, and
/// floating-point kernels keep the scalar reference's stripe-4 association
/// (so they use 256-bit vectors — four lanes ARE the four stripes).
///
/// One uarch note, measured on Sapphire Rapids: forwarding from a 512-bit
/// store to the 64-bit reloads of an extract buffer stalls (~0.4x on the
/// Count-Min row add), while 256-bit stores forward fine. Every
/// vector-compute/scalar-scatter kernel below therefore spills indices
/// through two 256-bit stores, never one 512-bit store.

#if defined(__AVX512F__) && defined(__AVX512CD__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <algorithm>

#include "common/bits.h"
#include "common/random.h"
#include "hash/hashed_batch.h"
#include "hash/murmur3.h"
#include "simd/internal.h"

namespace gems::simd {
namespace {

inline __m512i Splat8x64(uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

/// Eight lanes of Mix64 (the SplitMix64 finalizer), bit-identical to the
/// scalar gems::Mix64 — two native vpmullq instead of AVX2's six pmuludq.
inline __m512i Mix64V8(__m512i x) {
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                         Splat8x64(0xBF58476D1CE4E5B9ULL));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                         Splat8x64(0x94D049BB133111EBULL));
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

/// Eight lanes of Murmur3's FMix64 finalizer.
inline __m512i FMix64V8(__m512i k) {
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
  k = _mm512_mullo_epi64(k, Splat8x64(0xFF51AFD7ED558CCDULL));
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
  k = _mm512_mullo_epi64(k, Splat8x64(0xC4CEB9FE1A85EC53ULL));
  return _mm512_xor_si512(k, _mm512_srli_epi64(k, 33));
}

/// Eight lanes of Murmur3_128_U64: lo/hi halves for keys[0..7]. Same
/// schedule as the AVX2 Murmur3x4 with native multiply and rotate.
inline void Murmur3x8(__m512i keys, uint64_t seed, __m512i* lo, __m512i* hi) {
  const __m512i seedv = Splat8x64(seed);
  __m512i k1 = _mm512_mullo_epi64(keys, Splat8x64(murmur3_detail::kC1));
  k1 = _mm512_rol_epi64(k1, 31);
  k1 = _mm512_mullo_epi64(k1, Splat8x64(murmur3_detail::kC2));
  __m512i h1 = _mm512_xor_si512(seedv, k1);
  __m512i h2 = seedv;
  const __m512i len = Splat8x64(8);
  h1 = _mm512_xor_si512(h1, len);
  h2 = _mm512_xor_si512(h2, len);
  h1 = _mm512_add_epi64(h1, h2);
  h2 = _mm512_add_epi64(h2, h1);
  h1 = FMix64V8(h1);
  h2 = FMix64V8(h2);
  h1 = _mm512_add_epi64(h1, h2);
  h2 = _mm512_add_epi64(h2, h1);
  *lo = h1;
  *hi = h2;
}

/// Spill eight 64-bit lanes to a scalar-readable buffer through two 256-bit
/// stores (see the file comment for why not one 512-bit store).
inline void Store8(uint64_t* buf, __m512i v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf),
                     _mm512_castsi512_si256(v));
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 4),
                     _mm512_extracti64x4_epi64(v, 1));
}

/// Vector Granlund-Montgomery modulo, same math as InvariantMod. The
/// multiply-high still needs 32-bit partial products (there is no vpmulhuq),
/// but q*d collapses to one vpmullq.
struct VecMod512 {
  explicit VecMod512(uint64_t divisor)
      : scalar(divisor),
        d(Splat8x64(divisor)),
        pow2((divisor & (divisor - 1)) == 0),
        mask(Splat8x64(divisor - 1)) {
    const uint64_t magic = pow2 ? 0 : ~uint64_t{0} / divisor;
    magic_lo = Splat8x64(magic & 0xFFFFFFFFULL);
    magic_hi = Splat8x64(magic >> 32);
  }

  __m512i operator()(__m512i x) const {
    if (pow2) return _mm512_and_si512(x, mask);
    const __m512i x_hi = _mm512_srli_epi64(x, 32);
    const __m512i lolo = _mm512_mul_epu32(x, magic_lo);
    const __m512i hilo = _mm512_mul_epu32(x_hi, magic_lo);
    const __m512i lohi = _mm512_mul_epu32(x, magic_hi);
    const __m512i hihi = _mm512_mul_epu32(x_hi, magic_hi);
    const __m512i low_mask = Splat8x64(0xFFFFFFFFULL);
    const __m512i t = _mm512_srli_epi64(lolo, 32);
    const __m512i u = _mm512_add_epi64(hilo, t);
    const __m512i v = _mm512_add_epi64(lohi, _mm512_and_si512(u, low_mask));
    const __m512i q = _mm512_add_epi64(
        hihi, _mm512_add_epi64(_mm512_srli_epi64(u, 32),
                               _mm512_srli_epi64(v, 32)));
    __m512i r = _mm512_sub_epi64(x, _mm512_mullo_epi64(q, d));
    const __mmask8 ge = _mm512_cmpge_epu64_mask(r, d);
    return _mm512_mask_sub_epi64(r, ge, r, d);
  }

  InvariantMod scalar;  // for tails, bit-identical by shared contract
  __m512i d;
  bool pow2;
  __m512i mask;
  __m512i magic_lo;
  __m512i magic_hi;
};

// ------------------------------------------------------------------- hash

void Mix64Batch(const uint64_t* keys, size_t n, uint64_t mixed_seed,
                uint64_t* out) {
  const __m512i seedv = Splat8x64(mixed_seed);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i a = _mm512_loadu_si512(keys + i);
    const __m512i b = _mm512_loadu_si512(keys + i + 8);
    _mm512_storeu_si512(out + i, Mix64V8(_mm512_add_epi64(a, seedv)));
    _mm512_storeu_si512(out + i + 8, Mix64V8(_mm512_add_epi64(b, seedv)));
  }
  for (; i < n; ++i) out[i] = Mix64(keys[i] + mixed_seed);
}

uint64_t Mix64Min(const uint64_t* keys, size_t n, uint64_t mixed_seed) {
  uint64_t best = ~uint64_t{0};
  const __m512i seedv = Splat8x64(mixed_seed);
  size_t i = 0;
  if (n >= 8) {
    __m512i bestv = Splat8x64(~uint64_t{0});
    for (; i + 8 <= n; i += 8) {
      const __m512i k = _mm512_loadu_si512(keys + i);
      bestv = _mm512_min_epu64(bestv, Mix64V8(_mm512_add_epi64(k, seedv)));
    }
    best = _mm512_reduce_min_epu64(bestv);
  }
  for (; i < n; ++i) best = std::min(best, Mix64(keys[i] + mixed_seed));
  return best;
}

void Murmur3BatchU64(const uint64_t* keys, size_t n, uint64_t seed,
                     uint64_t* lo, uint64_t* hi) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i k = _mm512_loadu_si512(keys + i);
    __m512i l, h;
    Murmur3x8(k, seed, &l, &h);
    _mm512_storeu_si512(lo + i, l);
    _mm512_storeu_si512(hi + i, h);
  }
  for (; i < n; ++i) {
    const Hash128 h = Murmur3_128_U64(keys[i], seed);
    lo[i] = h.low;
    hi[i] = h.high;
  }
}

/// Eight lanes of (a * b + c) mod p, p = 2^61 - 1, for a, b, c < p, with b
/// given as its 32-bit limbs (b_hi < 2^29). Four vpmuludq products form
///   a * b = hh * 2^64 + (lh + hl) * 2^32 + ll,
/// and each term folds with 2^64 ≡ 8 and 2^61 ≡ 1 (mod p): 8 * hh < 2^61;
/// mid = lh + hl < 2^62 splits at bit 29 into mid >> 29 (times 2^61 ≡ 1)
/// and its low 29 bits shifted up by 32 (< 2^61); ll splits at bit 61. With
/// c the six terms sum below 2^63 + 2^34, one more fold leaves s <= p + 4,
/// and min(s, s - p) (s - p wraps huge when s < p) is the canonical residue
/// — the same field element as the scalar MulAddMod61, so the same word.
inline __m512i MulAddMod61V8(__m512i a, __m512i b_lo, __m512i b_hi,
                             __m512i c) {
  const __m512i p = Splat8x64(internal::kMersenne61);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i ll = _mm512_mul_epu32(a, b_lo);
  const __m512i mid =
      _mm512_add_epi64(_mm512_mul_epu32(a, b_hi), _mm512_mul_epu32(a_hi, b_lo));
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  __m512i s = _mm512_add_epi64(_mm512_slli_epi64(hh, 3),
                               _mm512_srli_epi64(mid, 29));
  s = _mm512_add_epi64(
      s, _mm512_slli_epi64(_mm512_and_si512(mid, Splat8x64((1u << 29) - 1)),
                           32));
  s = _mm512_add_epi64(s, _mm512_srli_epi64(ll, 61));
  s = _mm512_add_epi64(s, _mm512_and_si512(ll, p));
  s = _mm512_add_epi64(s, c);
  s = _mm512_add_epi64(_mm512_and_si512(s, p), _mm512_srli_epi64(s, 61));
  return _mm512_min_epu64(s, _mm512_sub_epi64(s, p));
}

/// Eight keys' Horner chains; the key is the fixed multiplicand, so its
/// limbs are split once per chain.
inline __m512i Mod61HornerV8(__m512i x, const uint64_t* coeffs, int k) {
  const __m512i x_hi = _mm512_srli_epi64(x, 32);
  __m512i acc = Splat8x64(coeffs[k - 1]);
  for (int j = k - 1; j-- > 0;) {
    acc = MulAddMod61V8(acc, x, x_hi, Splat8x64(coeffs[j]));
  }
  return acc;
}

void Mod61PolyEval(const uint64_t* x, size_t n, const uint64_t* coeffs, int k,
                   uint64_t* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i a = Mod61HornerV8(_mm512_loadu_si512(x + i), coeffs, k);
    const __m512i b = Mod61HornerV8(_mm512_loadu_si512(x + i + 8), coeffs, k);
    _mm512_storeu_si512(out + i, a);
    _mm512_storeu_si512(out + i + 8, b);
  }
  for (; i < n; ++i) out[i] = internal::Mod61Horner(x[i], coeffs, k);
}

// ------------------------------------------------------------ cardinality

/// (index << 8) | rho for eight hashes. vplzcntq makes rho branch-free in
/// one formula: rho = lzcnt(hash & low_mask) + shift - 63, and a masked
/// value of zero gives lzcnt = 64 = the "all low bits clear" answer of
/// shift + 1 with no special case.
inline __m512i PackedRhoIdx(__m512i h, int shift, __m512i low_mask,
                            __m512i rho_off) {
  const __m512i rho = _mm512_add_epi64(
      _mm512_lzcnt_epi64(_mm512_and_si512(h, low_mask)), rho_off);
  return _mm512_or_si512(
      _mm512_slli_epi64(_mm512_srli_epi64(h, shift), 8), rho);
}

inline void ScatterRegMax(uint8_t* regs, const uint64_t* packed, int count) {
  for (int j = 0; j < count; ++j) {
    const uint64_t w = packed[j];
    const uint8_t rho = static_cast<uint8_t>(w);
    uint8_t* reg = regs + (w >> 8);
    // Registers saturate fast, so the branch predicts not-taken and
    // repeated same-index updates skip the store entirely.
    if (rho > *reg) *reg = rho;
  }
}

void HllIngest(uint8_t* regs, int precision, const uint64_t* keys, size_t n,
               uint64_t mixed_seed) {
  const int shift = 64 - precision;
  const __m512i seedv = Splat8x64(mixed_seed);
  const __m512i low_mask = Splat8x64((uint64_t{1} << shift) - 1);
  const __m512i rho_off = Splat8x64(static_cast<uint64_t>(shift - 63));
  alignas(32) uint64_t packed[16];
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i ha =
        Mix64V8(_mm512_add_epi64(_mm512_loadu_si512(keys + i), seedv));
    const __m512i hb =
        Mix64V8(_mm512_add_epi64(_mm512_loadu_si512(keys + i + 8), seedv));
    Store8(packed, PackedRhoIdx(ha, shift, low_mask, rho_off));
    Store8(packed + 8, PackedRhoIdx(hb, shift, low_mask, rho_off));
    ScatterRegMax(regs, packed, 16);
  }
  for (; i < n; ++i) {
    const uint64_t hash = Mix64(keys[i] + mixed_seed);
    const uint32_t index = static_cast<uint32_t>(hash >> shift);
    const uint8_t rho = static_cast<uint8_t>(RankOfLeftmostOne(hash, shift));
    regs[index] = std::max(regs[index], rho);
  }
}

void HllUpdateHashes(uint8_t* regs, int precision, const uint64_t* hashes,
                     size_t n) {
  const int shift = 64 - precision;
  const __m512i low_mask = Splat8x64((uint64_t{1} << shift) - 1);
  const __m512i rho_off = Splat8x64(static_cast<uint64_t>(shift - 63));
  alignas(32) uint64_t packed[16];
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Store8(packed, PackedRhoIdx(_mm512_loadu_si512(hashes + i), shift,
                                low_mask, rho_off));
    Store8(packed + 8, PackedRhoIdx(_mm512_loadu_si512(hashes + i + 8), shift,
                                    low_mask, rho_off));
    ScatterRegMax(regs, packed, 16);
  }
  for (; i < n; ++i) {
    const uint64_t hash = hashes[i];
    const uint32_t index = static_cast<uint32_t>(hash >> shift);
    const uint8_t rho = static_cast<uint8_t>(RankOfLeftmostOne(hash, shift));
    regs[index] = std::max(regs[index], rho);
  }
}

void U8Max(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_max_epu8(a, b));
  }
  for (; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

// -------------------------------------------------------------- frequency

void CmRowAdd(uint64_t* row, uint64_t width, const uint64_t* hashes,
              size_t n) {
  const VecMod512 mod(width);
  alignas(32) uint64_t idx[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store8(idx, mod(_mm512_loadu_si512(hashes + i)));
    row[idx[0]] += 1;
    row[idx[1]] += 1;
    row[idx[2]] += 1;
    row[idx[3]] += 1;
    row[idx[4]] += 1;
    row[idx[5]] += 1;
    row[idx[6]] += 1;
    row[idx[7]] += 1;
  }
  for (; i < n; ++i) row[mod.scalar(hashes[i])] += 1;
}

void CmRowAddWeighted(uint64_t* row, uint64_t width, const uint64_t* hashes,
                      const int64_t* weights, size_t n) {
  const VecMod512 mod(width);
  alignas(32) uint64_t idx[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store8(idx, mod(_mm512_loadu_si512(hashes + i)));
    for (int j = 0; j < 8; ++j) {
      row[idx[j]] += static_cast<uint64_t>(weights[i + j]);
    }
  }
  for (; i < n; ++i) {
    row[mod.scalar(hashes[i])] += static_cast<uint64_t>(weights[i]);
  }
}

void CmRowMin(const uint64_t* row, uint64_t width, const uint64_t* hashes,
              size_t n, uint64_t* out) {
  const VecMod512 mod(width);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i counters = _mm512_i64gather_epi64(
        mod(_mm512_loadu_si512(hashes + i)), row, 8);
    const __m512i prev = _mm512_loadu_si512(out + i);
    _mm512_storeu_si512(out + i, _mm512_min_epu64(prev, counters));
  }
  for (; i < n; ++i) {
    out[i] = std::min(out[i], row[mod.scalar(hashes[i])]);
  }
}

void CmBlockedAdd(uint64_t* slots, uint64_t num_blocks, uint32_t depth,
                  uint32_t cols, uint64_t seed, const uint64_t* keys,
                  size_t n) {
  using internal::kCmBlockSlots;
  const VecMod512 mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(64) uint64_t blocks[kChunk];
  alignas(64) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    // 8-wide Murmur3 and vector modulo; blocks go through Store8 because
    // the probe loop reloads them as scalars.
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      __m512i lo, hi;
      Murmur3x8(_mm512_loadu_si512(keys + base + i), seed, &lo, &hi);
      Store8(blocks + i, mod(lo));
      _mm512_store_si512(probes + i, hi);
    }
    for (; i < len; ++i) {
      const Hash128 h = Murmur3_128_U64(keys[base + i], seed);
      blocks[i] = mod.scalar(h.low);
      probes[i] = h.high;
    }
    for (i = 0; i < len; ++i) {
      __builtin_prefetch(&slots[blocks[i] * kCmBlockSlots], 1);
    }
    for (i = 0; i < len; ++i) {
      internal::CmBlockedAddOne(&slots[blocks[i] * kCmBlockSlots], depth, cols,
                                probes[i], 1);
    }
  }
}

double I64SumSquares(const int64_t* values, size_t n) {
  // vcvtqq2pd rounds to nearest exactly like the scalar cast. 256-bit
  // vectors on purpose: the four lanes ARE the scalar reference's four
  // stripes, so the additions associate identically.
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtepi64_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)));
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

void BlockedBloomInsert(uint64_t* words, uint64_t num_blocks, int k,
                        uint64_t seed, const uint64_t* keys, size_t n) {
  using internal::kBlockedBloomWordsPerBlock;
  const VecMod512 mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(64) uint64_t blocks[kChunk];
  alignas(64) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      __m512i lo, hi;
      Murmur3x8(_mm512_loadu_si512(keys + base + i), seed, &lo, &hi);
      Store8(blocks + i, mod(lo));
      _mm512_store_si512(probes + i, hi);
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
      internal::BlockedBloomProbe(
          &words[blocks[i] * kBlockedBloomWordsPerBlock], k, probes[i]);
    }
  }
}

void BlockedBloomQuery(const uint64_t* words, uint64_t num_blocks, int k,
                       uint64_t seed, const uint64_t* keys, size_t n,
                       uint8_t* out) {
  using internal::kBlockedBloomWordsPerBlock;
  const VecMod512 mod(num_blocks);
  constexpr size_t kChunk = 64;
  alignas(64) uint64_t blocks[kChunk];
  alignas(64) uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      __m512i lo, hi;
      Murmur3x8(_mm512_loadu_si512(keys + base + i), seed, &lo, &hi);
      Store8(blocks + i, mod(lo));
      _mm512_store_si512(probes + i, hi);
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
      out[base + i] = internal::BlockedBloomTest(
          &words[blocks[i] * kBlockedBloomWordsPerBlock], k, probes[i]);
    }
  }
}

// ------------------------------------------------------------ elementwise

void U64Min(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_min_epu64(a, b));
  }
  for (; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
}

void U64Add(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_add_epi64(a, b));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void I64Add(int64_t* dst, const int64_t* src, size_t n) {
  U64Add(reinterpret_cast<uint64_t*>(dst),
         reinterpret_cast<const uint64_t*>(src), n);
}

}  // namespace

const SimdKernels* Avx512Kernels() {
  // Start from the AVX2 table: hll_harmonic_sum (four lanes are the four
  // stripes) and bloom_query keep their AVX2 variants, and entries with no
  // vector win keep the scalar reference.
  static const SimdKernels table = [] {
    const SimdKernels* base = Avx2Kernels();
    SimdKernels t = base != nullptr ? *base : ScalarKernels();
    t.name = "avx512";
    t.mix64_batch = &Mix64Batch;
    t.mix64_min = &Mix64Min;
    t.murmur3_batch_u64 = &Murmur3BatchU64;
    t.mod61_poly_eval = &Mod61PolyEval;
    t.hll_ingest = &HllIngest;
    t.hll_update_hashes = &HllUpdateHashes;
    t.u8_max = &U8Max;
    t.cm_row_add = &CmRowAdd;
    t.cm_row_add_weighted = &CmRowAddWeighted;
    t.cm_row_min = &CmRowMin;
    t.i64_sum_squares = &I64SumSquares;
    t.cm_blocked_add = &CmBlockedAdd;
    t.blocked_bloom_insert = &BlockedBloomInsert;
    t.blocked_bloom_query = &BlockedBloomQuery;
    t.u64_min = &U64Min;
    t.u64_add = &U64Add;
    t.i64_add = &I64Add;
    return t;
  }();
  return &table;
}

}  // namespace gems::simd

#else  // toolchain cannot target AVX-512

namespace gems::simd {
const SimdKernels* Avx512Kernels() { return nullptr; }
}  // namespace gems::simd

#endif  // AVX-512 toolchain support

#endif  // x86-64
