#ifndef GEMS_CARDINALITY_LINEAR_COUNTING_H_
#define GEMS_CARDINALITY_LINEAR_COUNTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/wire.h"

/// \file
/// Linear counting (Whang et al. 1990): hash each item to one bit of an
/// m-bit map and estimate cardinality as n̂ = -m·ln(V), where V is the
/// fraction of zero bits. Space is linear in the cardinality (like a Bloom
/// filter) but it is the most accurate estimator at small n, which is why
/// HyperLogLog implementations fall back to it below ~2.5m (the "small
/// range correction" this library's HLL uses).

namespace gems {

/// A linear counter over an m-bit bitmap.
class LinearCounting : public WireCodec<LinearCounting> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kLinearCounting;

  /// `num_bits` is rounded up to a multiple of 64. `seed` picks the hash.
  explicit LinearCounting(uint64_t num_bits, uint64_t seed = 0);

  LinearCounting(const LinearCounting&) = default;
  LinearCounting& operator=(const LinearCounting&) = default;
  LinearCounting(LinearCounting&&) = default;
  LinearCounting& operator=(LinearCounting&&) = default;

  /// Adds an item (idempotent per item).
  void Update(uint64_t item);

  /// Estimated number of distinct items. Returns m·ln(m) as a saturated
  /// upper estimate when every bit is set.
  double Estimate() const;

  /// Estimate with asymptotic-variance confidence interval (Whang et al.
  /// eq. 4).
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  /// Bitwise-OR union; requires equal size and seed.
  Status Merge(const LinearCounting& other);

  uint64_t num_bits() const { return num_bits_; }
  uint64_t NumBitsSet() const;
  size_t MemoryBytes() const { return bitmap_.size() * sizeof(uint64_t); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<LinearCounting> GetPayload(ByteReader& payload);

 private:
  uint64_t num_bits_;
  uint64_t seed_;
  std::vector<uint64_t> bitmap_;
};

}  // namespace gems

#endif  // GEMS_CARDINALITY_LINEAR_COUNTING_H_
