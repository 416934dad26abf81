#ifndef GEMS_MEMBERSHIP_BLOCKED_BLOOM_H_
#define GEMS_MEMBERSHIP_BLOCKED_BLOOM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/wire.h"

/// \file
/// Cache-blocked Bloom filter (Putze, Sanders & Singler 2007): confines all
/// k probes of a key to one 64-byte cache line, trading a slightly higher
/// false-positive rate for one memory access per query instead of k. This
/// is the variant used inside RocksDB and most modern storage engines — a
/// concrete instance of the "practical implementation" concerns the paper's
/// mergeable-era section highlights.

namespace gems {

/// Blocked Bloom filter with 512-bit (cache line) blocks.
class BlockedBloomFilter : public WireCodec<BlockedBloomFilter> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kBlockedBloomFilter;

  /// `num_bits` rounded up to a multiple of 512; `num_hashes` probes, all
  /// within one block.
  BlockedBloomFilter(uint64_t num_bits, int num_hashes, uint64_t seed = 0);

  BlockedBloomFilter(const BlockedBloomFilter&) = default;
  BlockedBloomFilter& operator=(const BlockedBloomFilter&) = default;
  BlockedBloomFilter(BlockedBloomFilter&&) = default;
  BlockedBloomFilter& operator=(BlockedBloomFilter&&) = default;

  void Insert(uint64_t key);
  bool MayContain(uint64_t key) const;

  /// Batched insert through the dispatched simd kernel: hashes a chunk of
  /// keys in one hoisted pass, prefetches each key's cache-line block, then
  /// streams the probe writes. Bit ORs commute, so state is byte-identical
  /// to per-key Insert().
  void InsertBatch(std::span<const uint64_t> keys);

  /// Batched membership: out[i] = MayContain(keys[i]) ? 1 : 0 for every i.
  /// `out` must have room for keys.size() results.
  void MayContainBatch(std::span<const uint64_t> keys, uint8_t* out) const;

  Status Merge(const BlockedBloomFilter& other);

  uint64_t num_bits() const { return num_blocks_ * 512; }
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<BlockedBloomFilter> GetPayload(ByteReader& payload);

 private:
  static constexpr int kWordsPerBlock = 8;  // 512 bits.

  void InsertProbes(uint64_t block, uint64_t probe_bits);

  uint64_t num_blocks_;
  int num_hashes_;
  uint64_t seed_;
  std::vector<uint64_t> words_;
};

}  // namespace gems

#endif  // GEMS_MEMBERSHIP_BLOCKED_BLOOM_H_
