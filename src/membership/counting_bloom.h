#ifndef GEMS_MEMBERSHIP_COUNTING_BLOOM_H_
#define GEMS_MEMBERSHIP_COUNTING_BLOOM_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/wire.h"

/// \file
/// Counting Bloom filter (Fan et al. 1998): replaces each bit with a small
/// counter so items can be deleted — the standard fix for Bloom's
/// insert-only limitation, at 4-8x the space. Uses 8-bit saturating
/// counters (a counter that reaches 255 sticks there, so deletions remain
/// safe: a saturated counter never decrements to a false negative).

namespace gems {

/// Counting Bloom filter with 8-bit saturating counters.
class CountingBloomFilter : public WireCodec<CountingBloomFilter> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kCountingBloomFilter;

  CountingBloomFilter(uint64_t num_counters, int num_hashes,
                      uint64_t seed = 0);

  CountingBloomFilter(const CountingBloomFilter&) = default;
  CountingBloomFilter& operator=(const CountingBloomFilter&) = default;
  CountingBloomFilter(CountingBloomFilter&&) = default;
  CountingBloomFilter& operator=(CountingBloomFilter&&) = default;

  void Insert(uint64_t key);
  /// Removes one prior insertion of `key`. Removing a key that was never
  /// inserted can create false negatives for other keys (inherent to the
  /// structure); callers must only remove inserted keys.
  void Remove(uint64_t key);

  bool MayContain(uint64_t key) const;

  /// Counter-wise saturating add; requires identical shape and seed.
  Status Merge(const CountingBloomFilter& other);

  uint64_t num_counters() const { return num_counters_; }
  size_t MemoryBytes() const { return counters_.size(); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<CountingBloomFilter> GetPayload(ByteReader& payload);

 private:
  void Probe(uint64_t key, uint64_t* h1, uint64_t* h2) const;

  uint64_t num_counters_;
  int num_hashes_;
  uint64_t seed_;
  std::vector<uint8_t> counters_;
};

}  // namespace gems

#endif  // GEMS_MEMBERSHIP_COUNTING_BLOOM_H_
