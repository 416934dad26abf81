#ifndef GEMS_CARDINALITY_FLAJOLET_MARTIN_H_
#define GEMS_CARDINALITY_FLAJOLET_MARTIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/wire.h"

/// \file
/// Flajolet-Martin probabilistic counting with stochastic averaging (PCSA,
/// 1983): the first O(log n)-bit distinct counter and the ancestor of
/// LogLog and HyperLogLog. Each item sets one bit (at a geometrically
/// distributed position) in one of m bitmaps; the estimate is derived from
/// the position of the lowest unset bit, averaged across bitmaps.

namespace gems {

/// PCSA sketch with `num_bitmaps` 64-bit bitmaps.
class FlajoletMartin : public WireCodec<FlajoletMartin> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kFlajoletMartin;

  /// `num_bitmaps` must be a power of two; standard error ~0.78/sqrt(m).
  explicit FlajoletMartin(uint32_t num_bitmaps, uint64_t seed = 0);

  FlajoletMartin(const FlajoletMartin&) = default;
  FlajoletMartin& operator=(const FlajoletMartin&) = default;
  FlajoletMartin(FlajoletMartin&&) = default;
  FlajoletMartin& operator=(FlajoletMartin&&) = default;

  /// Adds an item (idempotent per item).
  void Update(uint64_t item);

  /// Estimated number of distinct items:
  /// n̂ = (m / phi) * 2^{mean lowest-zero position}, phi = 0.77351.
  double Estimate() const;

  /// Estimate with the 0.78/sqrt(m) normal-approximation interval.
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  /// Bitwise-OR union; requires equal shape and seed.
  Status Merge(const FlajoletMartin& other);

  uint32_t num_bitmaps() const { return num_bitmaps_; }
  size_t MemoryBytes() const { return bitmaps_.size() * sizeof(uint64_t); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<FlajoletMartin> GetPayload(ByteReader& payload);

 private:
  uint32_t num_bitmaps_;
  uint64_t seed_;
  std::vector<uint64_t> bitmaps_;
};

}  // namespace gems

#endif  // GEMS_CARDINALITY_FLAJOLET_MARTIN_H_
