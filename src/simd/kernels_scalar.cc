#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/bits.h"
#include "common/random.h"
#include "hash/hashed_batch.h"
#include "hash/murmur3.h"
#include "simd/internal.h"
#include "simd/kernels.h"

/// \file
/// The scalar reference table. These loops define the semantics every
/// vector variant must reproduce bit for bit: integer kernels are exact by
/// construction, and the two floating-point reductions fix their
/// association order (stripe-4) so a 4-lane vector accumulator adds the
/// same operands in the same order. GCC/Clang auto-vectorize several of
/// these at -O3 — that is fine; the dispatch layer exists for the loops
/// the autovectorizer cannot touch (64-bit mixing, gathers, probe math).

namespace gems::simd {
namespace {

// ------------------------------------------------------------------- hash

void Mix64Batch(const uint64_t* keys, size_t n, uint64_t mixed_seed,
                uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Mix64(keys[i] + mixed_seed);
}

uint64_t Mix64Min(const uint64_t* keys, size_t n, uint64_t mixed_seed) {
  uint64_t best = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    best = std::min(best, Mix64(keys[i] + mixed_seed));
  }
  return best;
}

void Murmur3BatchU64(const uint64_t* keys, size_t n, uint64_t seed,
                     uint64_t* lo, uint64_t* hi) {
  for (size_t i = 0; i < n; ++i) {
    const Hash128 h = Murmur3_128_U64(keys[i], seed);
    lo[i] = h.low;
    hi[i] = h.high;
  }
}

void Mod61PolyEval(const uint64_t* x, size_t n, const uint64_t* coeffs, int k,
                   uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = internal::Mod61Horner(x[i], coeffs, k);
  }
}

// ------------------------------------------------------------ cardinality

void HllUpdateHashes(uint8_t* regs, int precision, const uint64_t* hashes,
                     size_t n) {
  const int shift = 64 - precision;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hash = hashes[i];
    const uint32_t index = static_cast<uint32_t>(hash >> shift);
    const uint8_t rho = static_cast<uint8_t>(RankOfLeftmostOne(hash, shift));
    regs[index] = std::max(regs[index], rho);
  }
}

void HllIngest(uint8_t* regs, int precision, const uint64_t* keys, size_t n,
               uint64_t mixed_seed) {
  const int shift = 64 - precision;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hash = Mix64(keys[i] + mixed_seed);
    const uint32_t index = static_cast<uint32_t>(hash >> shift);
    const uint8_t rho = static_cast<uint8_t>(RankOfLeftmostOne(hash, shift));
    regs[index] = std::max(regs[index], rho);
  }
}

void U8Max(uint8_t* dst, const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

using internal::Pow2Neg;

void HllHarmonicSum(const uint8_t* regs, size_t n, double* sum,
                    uint32_t* zeros) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  uint32_t z = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t reg = regs[i];
    s[i & 3] += Pow2Neg(reg);
    z += (reg == 0) ? 1 : 0;
  }
  *sum = (s[0] + s[1]) + (s[2] + s[3]);
  *zeros = z;
}

// -------------------------------------------------------------- frequency

void CmRowAdd(uint64_t* row, uint64_t width, const uint64_t* hashes,
              size_t n) {
  const InvariantMod mod(width);
  for (size_t i = 0; i < n; ++i) row[mod(hashes[i])] += 1;
}

void CmRowAddWeighted(uint64_t* row, uint64_t width, const uint64_t* hashes,
                      const int64_t* weights, size_t n) {
  const InvariantMod mod(width);
  for (size_t i = 0; i < n; ++i) {
    row[mod(hashes[i])] += static_cast<uint64_t>(weights[i]);
  }
}

void CmRowMin(const uint64_t* row, uint64_t width, const uint64_t* hashes,
              size_t n, uint64_t* out) {
  const InvariantMod mod(width);
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::min(out[i], row[mod(hashes[i])]);
  }
}

void CmBlockedAdd(uint64_t* slots, uint64_t num_blocks, uint32_t depth,
                  uint32_t cols, uint64_t seed, const uint64_t* keys,
                  size_t n) {
  internal::ForEachBlock(slots, num_blocks, seed, {keys, n},
                         [&](uint64_t* block, uint64_t probe_bits, size_t) {
                           internal::CmBlockedAddOne(block, depth, cols,
                                                     probe_bits, 1);
                         });
}

double I64SumSquares(const int64_t* values, size_t n) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(values[i]);
    s[i & 3] += v * v;
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

// ------------------------------------------------------------- membership

void BloomQuery(const uint64_t* bits, uint64_t num_bits, int k,
                const uint64_t* h1, const uint64_t* h2, size_t n,
                uint8_t* out) {
  const InvariantMod mod(num_bits);
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = h1[i];
    const uint64_t step = h2[i];
    uint8_t all_set = 1;
    for (int j = 0; j < k; ++j) {
      const uint64_t bit = mod(h);
      all_set &= static_cast<uint8_t>((bits[bit >> 6] >> (bit & 63)) & 1);
      h += step;
    }
    out[i] = all_set;
  }
}

using internal::BlockedBloomProbe;
using internal::BlockedBloomTest;
using internal::kBlockedBloomWordsPerBlock;

void BlockedBloomInsert(uint64_t* words, uint64_t num_blocks, int k,
                        uint64_t seed, const uint64_t* keys, size_t n) {
  const InvariantMod mod(num_blocks);
  // Chunked: hash + block-select a run of keys, prefetch their blocks, then
  // do the probe writes once the lines are (hopefully) in flight.
  constexpr size_t kChunk = 64;
  uint64_t blocks[kChunk];
  uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    for (size_t i = 0; i < len; ++i) {
      const Hash128 h = Murmur3_128_U64(keys[base + i], seed);
      blocks[i] = mod(h.low);
      probes[i] = h.high;
      __builtin_prefetch(&words[blocks[i] * kBlockedBloomWordsPerBlock], 1);
    }
    for (size_t i = 0; i < len; ++i) {
      BlockedBloomProbe(&words[blocks[i] * kBlockedBloomWordsPerBlock], k,
                        probes[i]);
    }
  }
}

void BlockedBloomQuery(const uint64_t* words, uint64_t num_blocks, int k,
                       uint64_t seed, const uint64_t* keys, size_t n,
                       uint8_t* out) {
  const InvariantMod mod(num_blocks);
  constexpr size_t kChunk = 64;
  uint64_t blocks[kChunk];
  uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    for (size_t i = 0; i < len; ++i) {
      const Hash128 h = Murmur3_128_U64(keys[base + i], seed);
      blocks[i] = mod(h.low);
      probes[i] = h.high;
      __builtin_prefetch(&words[blocks[i] * kBlockedBloomWordsPerBlock], 0);
    }
    for (size_t i = 0; i < len; ++i) {
      out[base + i] = BlockedBloomTest(
          &words[blocks[i] * kBlockedBloomWordsPerBlock], k, probes[i]);
    }
  }
}

// ------------------------------------------------------------ elementwise

void U64Min(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
}

void U64Add(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void I64Add(int64_t* dst, const int64_t* src, size_t n) {
  // Unsigned wrapping add: merging two near-saturated counters must wrap
  // like the vector variants, not be UB.
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<int64_t>(static_cast<uint64_t>(dst[i]) +
                                  static_cast<uint64_t>(src[i]));
  }
}

}  // namespace

const SimdKernels& ScalarKernels() {
  static const SimdKernels table = {
      .name = "scalar",
      .mix64_batch = &Mix64Batch,
      .mix64_min = &Mix64Min,
      .murmur3_batch_u64 = &Murmur3BatchU64,
      .hll_update_hashes = &HllUpdateHashes,
      .hll_ingest = &HllIngest,
      .u8_max = &U8Max,
      .hll_harmonic_sum = &HllHarmonicSum,
      .cm_row_add = &CmRowAdd,
      .cm_row_add_weighted = &CmRowAddWeighted,
      .cm_row_min = &CmRowMin,
      .i64_sum_squares = &I64SumSquares,
      .mod61_poly_eval = &Mod61PolyEval,
      .cm_blocked_add = &CmBlockedAdd,
      .bloom_query = &BloomQuery,
      .blocked_bloom_insert = &BlockedBloomInsert,
      .blocked_bloom_query = &BlockedBloomQuery,
      .u64_min = &U64Min,
      .u64_add = &U64Add,
      .i64_add = &I64Add,
  };
  return table;
}

}  // namespace gems::simd
