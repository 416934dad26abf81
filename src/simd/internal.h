#ifndef GEMS_SIMD_INTERNAL_H_
#define GEMS_SIMD_INTERNAL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/random.h"
#include "hash/hashed_batch.h"
#include "hash/murmur3.h"

/// \file
/// Helpers shared by the kernel variant TUs (scalar / AVX2 / AVX-512) and
/// the blocked-layout sketches. These define scalar sub-steps that every
/// variant must reproduce exactly — keeping them in one header is what
/// keeps the variants bit-identical by construction rather than by
/// vigilance.

namespace gems::simd::internal {

/// 2^-reg exactly, for reg in [0, 64]: build the double's bit pattern
/// directly (exponent field 1023 - reg stays normal down to reg == 64).
inline double Pow2Neg(uint8_t reg) {
  return std::bit_cast<double>(static_cast<uint64_t>(1023 - reg) << 52);
}

// Carter-Wegman arithmetic over the Mersenne prime p = 2^61 - 1, the
// scalar form of mod61_poly_eval (and of KWiseHash::EvalReduced).
inline constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

// (a * b + c) mod p for a, b, c < p: 2^61 ≡ 1 folds the 122-bit product
// into low + high < 2p, one conditional subtraction makes it canonical,
// and the addend takes one more.
inline uint64_t MulAddMod61(uint64_t a, uint64_t b, uint64_t c) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  uint64_t s = (static_cast<uint64_t>(product) & kMersenne61) +
               static_cast<uint64_t>(product >> 61);
  if (s >= kMersenne61) s -= kMersenne61;
  s += c;
  if (s >= kMersenne61) s -= kMersenne61;
  return s;
}

inline uint64_t Mod61Horner(uint64_t x, const uint64_t* coeffs, int k) {
  uint64_t acc = coeffs[k - 1];
  for (int j = k - 1; j-- > 0;) acc = MulAddMod61(acc, x, coeffs[j]);
  return acc;
}

// Blocked Bloom probe schedule (matches BlockedBloomFilter::InsertProbes):
// consecutive 9-bit slices of the 64-bit probe word; after the sixth slice
// the word is refilled with Mix64(probe_bits). Blocks are 8 x 64-bit words
// (one cache line).
inline constexpr int kBlockedBloomWordsPerBlock = 8;
inline constexpr int kBlockedBloomProbeBits = 9;
inline constexpr int kBlockedBloomProbesPerWord = 6;

inline void BlockedBloomProbe(uint64_t* block, int k, uint64_t probe_bits) {
  uint64_t probes = probe_bits;
  for (int i = 0; i < k; ++i) {
    if (i == kBlockedBloomProbesPerWord) probes = Mix64(probe_bits);
    const uint32_t bit =
        static_cast<uint32_t>(probes) & ((1u << kBlockedBloomProbeBits) - 1);
    probes >>= kBlockedBloomProbeBits;
    block[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
}

inline bool BlockedBloomTest(const uint64_t* block, int k,
                             uint64_t probe_bits) {
  uint64_t probes = probe_bits;
  for (int i = 0; i < k; ++i) {
    if (i == kBlockedBloomProbesPerWord) probes = Mix64(probe_bits);
    const uint32_t bit =
        static_cast<uint32_t>(probes) & ((1u << kBlockedBloomProbeBits) - 1);
    probes >>= kBlockedBloomProbeBits;
    if (((block[bit >> 6] >> (bit & 63)) & 1) == 0) return false;
  }
  return true;
}

// Cache-line-blocked frequency-sketch tile schedule (matches the kBlocked
// layout in CountMinSketch / CountSketch): a block is 8 x 64-bit counters
// (one cache line); row r owns the `cols` consecutive slots starting at
// r * cols, where cols is a power of two <= 8 / depth. One
// Murmur3_128_U64(item, seed) drives everything: block = h.low % num_blocks,
// and row r's sub-column is 3-bit slice r of h.high masked to cols - 1.
// CountSketch signs come from bits 24+r of h.high, above every column slice
// (depth <= 8 uses column bits 0..23 at most), so columns and signs never
// share entropy.
inline constexpr int kCmBlockSlots = 8;
inline constexpr int kCmBlockColBits = 3;
inline constexpr int kCsBlockSignShift = 24;

// Largest power-of-two column count per row that fits depth rows into one
// 8-counter block (depth 1 -> 8, 2 -> 4, 3..4 -> 2, 5..8 -> 1).
inline uint32_t BlockColsFor(uint32_t depth) {
  uint32_t cols = 1;
  while (cols * 2 * depth <= kCmBlockSlots) cols *= 2;
  return cols;
}

// Visits a blocked depth x width counter array in wire order — the logical
// flat matrix, row-major — passing the storage slot of each counter: flat
// column b*cols + j of row r lives at slot b*8 + r*cols + j. The one
// blocked<->flat permutation, shared by Count-Min's and Count Sketch's
// codecs and view merges.
template <typename Visit>
inline void ForEachBlockedWireSlot(uint32_t depth, uint32_t width,
                                   uint32_t cols, Visit&& visit) {
  const uint32_t col_shift = std::countr_zero(cols);
  const uint32_t col_mask = cols - 1;
  for (uint32_t row = 0; row < depth; ++row) {
    for (uint32_t col = 0; col < width; ++col) {
      visit(static_cast<uint64_t>(col >> col_shift) * kCmBlockSlots +
            row * cols + (col & col_mask));
    }
  }
}

inline uint32_t CmBlockCol(uint64_t probe_bits, uint32_t row,
                           uint32_t col_mask) {
  return static_cast<uint32_t>(probe_bits >> (kCmBlockColBits * row)) &
         col_mask;
}

inline void CmBlockedAddOne(uint64_t* block, uint32_t depth, uint32_t cols,
                            uint64_t probe_bits, uint64_t weight) {
  const uint32_t col_mask = cols - 1;
  for (uint32_t r = 0; r < depth; ++r) {
    block[r * cols + CmBlockCol(probe_bits, r, col_mask)] += weight;
  }
}

inline uint64_t CmBlockedMinOne(const uint64_t* block, uint32_t depth,
                                uint32_t cols, uint64_t probe_bits) {
  const uint32_t col_mask = cols - 1;
  uint64_t best = ~uint64_t{0};
  for (uint32_t r = 0; r < depth; ++r) {
    best = std::min(best, block[r * cols + CmBlockCol(probe_bits, r, col_mask)]);
  }
  return best;
}

inline int64_t CsBlockSign(uint64_t probe_bits, uint32_t row) {
  return ((probe_bits >> (kCsBlockSignShift + row)) & 1) ? int64_t{1}
                                                         : int64_t{-1};
}

inline void CsBlockedAddOne(int64_t* block, uint32_t depth, uint32_t cols,
                            uint64_t probe_bits, int64_t weight) {
  const uint32_t col_mask = cols - 1;
  // Sign application and accumulation both run in unsigned arithmetic:
  // negating or adding at the extremes of int64 must wrap in two's
  // complement (as the flat path's hardware vector adds do), not hit
  // signed-overflow UB.
  const uint64_t mag = static_cast<uint64_t>(weight);
  for (uint32_t r = 0; r < depth; ++r) {
    int64_t& slot = block[r * cols + CmBlockCol(probe_bits, r, col_mask)];
    const uint64_t delta = CsBlockSign(probe_bits, r) > 0 ? mag : uint64_t{0} - mag;
    slot = static_cast<int64_t>(static_cast<uint64_t>(slot) + delta);
  }
}

// The scalar blocked batch schedule: per run of 64 keys, hash each key
// once, select its block and prefetch the block's line (for writing unless
// `Counter` is const), then call touch(block, probe_bits, i) for each key
// i in order, once the loads are in flight. The blocks and probes are
// exactly the per-item ones, so a batch matches per-item Update/Estimate.
// Kept out of line: inlined into CountMinSketch::UpdateBatch, the same
// loop ran at about 0.7x on bench_e07_throughput's layout shape.
template <typename Counter, typename Touch>
[[gnu::noinline]] void ForEachBlock(Counter* slots, uint64_t num_blocks,
                                    uint64_t seed,
                                    std::span<const uint64_t> keys,
                                    Touch&& touch) {
  constexpr int kForWrite = std::is_const_v<Counter> ? 0 : 1;
  const InvariantMod mod(num_blocks);
  constexpr size_t kRun = 64;
  uint64_t blocks[kRun];
  uint64_t probes[kRun];
  for (size_t base = 0; base < keys.size(); base += kRun) {
    const size_t len = std::min(kRun, keys.size() - base);
    for (size_t i = 0; i < len; ++i) {
      const Hash128 h = Murmur3_128_U64(keys[base + i], seed);
      blocks[i] = mod(h.low);
      probes[i] = h.high;
      __builtin_prefetch(&slots[blocks[i] * kCmBlockSlots], kForWrite);
    }
    for (size_t i = 0; i < len; ++i) {
      touch(&slots[blocks[i] * kCmBlockSlots], probes[i], base + i);
    }
  }
}

}  // namespace gems::simd::internal

#endif  // GEMS_SIMD_INTERNAL_H_
