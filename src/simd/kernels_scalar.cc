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

void CsRowScatter(int64_t* row, const uint32_t* buckets,
                  const int64_t* signed_weights, size_t n) {
  // Unsigned wrapping add: counters near INT64_MAX must wrap in two's
  // complement like the vector kernels' hardware adds do, not hit signed-
  // overflow UB.
  for (size_t i = 0; i < n; ++i) {
    row[buckets[i]] =
        static_cast<int64_t>(static_cast<uint64_t>(row[buckets[i]]) +
                             static_cast<uint64_t>(signed_weights[i]));
  }
}

using internal::CmBlockedAddOne;
using internal::CmBlockedMinOne;
using internal::CsBlockedAddOne;
using internal::kCmBlockSlots;

void CmBlockedAdd(uint64_t* slots, uint64_t num_blocks, uint32_t depth,
                  uint32_t cols, uint64_t seed, const uint64_t* keys,
                  size_t n) {
  const InvariantMod mod(num_blocks);
  // Same chunked hash-then-touch shape as BlockedBloomInsert: block-select a
  // run of keys, prefetch their lines, probe once the loads are in flight.
  constexpr size_t kChunk = 64;
  uint64_t blocks[kChunk];
  uint64_t probes[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    for (size_t i = 0; i < len; ++i) {
      const Hash128 h = Murmur3_128_U64(keys[base + i], seed);
      blocks[i] = mod(h.low);
      probes[i] = h.high;
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
      __builtin_prefetch(&slots[blocks[i] * kCmBlockSlots], 1);
    }
    for (size_t i = 0; i < len; ++i) {
      CsBlockedAddOne(&slots[blocks[i] * kCmBlockSlots], depth, cols,
                      probes[i], weights == nullptr ? 1 : weights[base + i]);
    }
  }
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

void BloomInsert(uint64_t* bits, uint64_t num_bits, int k, const uint64_t* h1,
                 const uint64_t* h2, size_t n) {
  const InvariantMod mod(num_bits);
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = h1[i];
    const uint64_t step = h2[i];
    for (int j = 0; j < k; ++j) {
      const uint64_t bit = mod(h);
      bits[bit >> 6] |= uint64_t{1} << (bit & 63);
      h += step;
    }
  }
}

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

// -------------------------------------------------------------- quantiles

void SortDoubles(double* data, size_t n) { std::sort(data, data + n); }

void MergeDoubles(const double* a, size_t na, const double* b, size_t nb,
                  double* out) {
  // std::merge takes from the first range on ties, per the contract.
  std::merge(a, a + na, b, b + nb, out);
}

// ------------------------------------------------------------ elementwise

void U64Min(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
}

void U64Or(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void U64Add(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void I64Add(int64_t* dst, const int64_t* src, size_t n) {
  // Unsigned wrapping add for the same reason as CsRowScatter: merging two
  // near-saturated counters must wrap like the vector variants, not be UB.
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
      .cs_row_scatter = &CsRowScatter,
      .i64_sum_squares = &I64SumSquares,
      .mod61_poly_eval = &Mod61PolyEval,
      .cm_blocked_add = &CmBlockedAdd,
      .cm_blocked_add_weighted = &CmBlockedAddWeighted,
      .cm_blocked_min = &CmBlockedMin,
      .cs_blocked_add = &CsBlockedAdd,
      .bloom_insert = &BloomInsert,
      .bloom_query = &BloomQuery,
      .blocked_bloom_insert = &BlockedBloomInsert,
      .blocked_bloom_query = &BlockedBloomQuery,
      .sort_doubles = &SortDoubles,
      .merge_doubles = &MergeDoubles,
      .u64_min = &U64Min,
      .u64_or = &U64Or,
      .u64_add = &U64Add,
      .i64_add = &I64Add,
  };
  return table;
}

}  // namespace gems::simd
