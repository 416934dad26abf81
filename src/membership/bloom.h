#ifndef GEMS_MEMBERSHIP_BLOOM_H_
#define GEMS_MEMBERSHIP_BLOOM_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/io.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"

/// \file
/// Bloom filter (Bloom 1970) — per the paper, "perhaps the first example of
/// something we can think of as a sketch", originally motivated by spell
/// checking under memory constraints. Uses Kirsch-Mitzenmacher double
/// hashing: the k probe positions are derived as h1 + i*h2 from one 128-bit
/// hash, which preserves the asymptotic false-positive rate.

namespace gems {

/// A standard Bloom filter over 64-bit keys (or byte strings).
class BloomFilter : public WireCodec<BloomFilter> {
 public:
  /// Wire-format type tag, for View<BloomFilter> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kBloomFilter;

  /// Creates a filter with `num_bits` bits (rounded up to a multiple of 64)
  /// and `num_hashes` probes per item.
  BloomFilter(uint64_t num_bits, int num_hashes, uint64_t seed = 0);

  /// Sizes a filter for `expected_items` at `target_fpr` using the optimal
  /// m = -n ln p / (ln 2)^2 and k = (m/n) ln 2.
  static BloomFilter ForCapacity(uint64_t expected_items, double target_fpr,
                                 uint64_t seed = 0);

  /// Advisor-driven constructor for the same sizing rule that surfaces
  /// invalid parameters as a Status instead of aborting: kInvalidArgument
  /// unless `expected_items` > 0 and 0 < `target_fpr` < 1.
  static Result<BloomFilter> ForFpr(uint64_t expected_items, double target_fpr,
                                    uint64_t seed = 0);

  BloomFilter(const BloomFilter&) = default;
  BloomFilter& operator=(const BloomFilter&) = default;
  BloomFilter(BloomFilter&&) = default;
  BloomFilter& operator=(BloomFilter&&) = default;

  /// Inserts a key.
  void Insert(uint64_t key);
  void Insert(std::string_view key);

  /// Batched insert: computes the 128-bit hash for a chunk of keys in one
  /// hoisted loop, then streams the probe writes. Bit ORs commute, so state
  /// is byte-identical to per-key Insert().
  void InsertBatch(std::span<const uint64_t> keys);

  /// True if the key may have been inserted; false means definitely not.
  bool MayContain(uint64_t key) const;
  bool MayContain(std::string_view key) const;

  /// Batched membership: out[i] = MayContain(keys[i]) ? 1 : 0 for every i,
  /// with the hashing and multi-probe reads batched through the dispatched
  /// kernels. `out` must have room for keys.size() results.
  void MayContainBatch(std::span<const uint64_t> keys, uint8_t* out) const;

  /// Predicted false-positive rate at the current fill: (1 - e^{-kn/m})^k
  /// using the number of set bits as the fill estimate.
  double EstimatedFpr() const;

  /// Theoretical FPR for the given parameters after n insertions.
  static double TheoreticalFpr(uint64_t num_bits, int num_hashes, uint64_t n);

  /// Estimated number of distinct keys inserted, from the bit occupancy
  /// (Swamidass & Baldi 2007): n̂ = -(m/k) ln(1 - X/m) with X set bits.
  /// Returns m ln m / k as a saturated ceiling when every bit is set.
  double EstimateCardinality() const;

  /// Optimal probe count for a bits-per-item budget: k = (m/n) ln 2.
  static int OptimalNumHashes(double bits_per_item);

  /// Bitwise-OR union; requires identical shape and seed.
  Status Merge(const BloomFilter& other);

  uint64_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }
  uint64_t NumBitsSet() const;
  size_t MemoryBytes() const { return bits_.size() * sizeof(uint64_t); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<BloomFilter> GetPayload(ByteReader& payload);

 private:
  /// gems::MergeFromView (core/summary.h) is the one public entry point;
  /// it calls this zero-copy member.
  template <typename S>
    requires MergeableSummary<S>
  friend Status MergeFromView(S& into, const View<S>& view);
  /// Bitwise-OR union straight out of a wrapped serialized peer — no
  /// materialization. Byte-identical result to Merge(*view.Materialize()).
  Status MergeFromView(const View<BloomFilter>& view);

  /// A validated wire image: the shape, the seed, and the num_bits / 64
  /// little-endian words.
  struct WireHeader {
    uint64_t num_bits = 0;
    uint8_t num_hashes = 0;
    uint64_t seed = 0;
    ByteSpan words;
  };
  /// The one header parse, shared by GetPayload and MergeFromView so both
  /// refuse the same images with the same status.
  static Result<WireHeader> ReadWireHeader(ByteReader& payload);

  void InsertHash(uint64_t h1, uint64_t h2);
  bool MayContainHash(uint64_t h1, uint64_t h2) const;

  uint64_t num_bits_;
  int num_hashes_;
  uint64_t seed_;
  std::vector<uint64_t> bits_;
};

}  // namespace gems

#endif  // GEMS_MEMBERSHIP_BLOOM_H_
