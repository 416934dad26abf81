#ifndef GEMS_MOMENTS_AMS_H_
#define GEMS_MOMENTS_AMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/wire.h"
#include "hash/polynomial.h"

/// \file
/// AMS "tug-of-war" sketch (Alon, Matias & Szegedy 1996) — the result the
/// paper credits with launching streaming algorithms. Each estimator keeps
/// Z = sum_x f(x) * s(x) for a 4-wise independent Rademacher s; E[Z^2] = F2
/// and Var[Z^2] <= 2*F2^2. Averaging s1 estimators and taking the median of
/// s2 groups gives an (eps, delta) approximation of the second frequency
/// moment (self-join size). Can be viewed, as the paper notes, as a
/// small-space Johnson-Lindenstrauss projection.

namespace gems {

/// AMS F2 sketch with s2 groups of s1 estimators (median of means).
class AmsSketch : public WireCodec<AmsSketch> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kAmsSketch;

  /// Standard error ~ sqrt(2/s1); failure probability ~ 2^-Omega(s2).
  AmsSketch(uint32_t estimators_per_group, uint32_t num_groups,
            uint64_t seed = 0);

  AmsSketch(const AmsSketch&) = default;
  AmsSketch& operator=(const AmsSketch&) = default;
  AmsSketch(AmsSketch&&) = default;
  AmsSketch& operator=(AmsSketch&&) = default;

  /// Adds `weight` (may be negative) to item's frequency.
  void Update(uint64_t item, int64_t weight = 1);

  /// Batched ingest, weight 1 per item. Hoists the field reduction of each
  /// key out of the estimator loop and accumulates each estimator's signed
  /// sum in a register before one counter write. Integer adds commute, so
  /// counters are byte-identical to per-item Update().
  void UpdateBatch(std::span<const uint64_t> items);

  /// Batched weighted ingest; `weights` parallel to `items`.
  void UpdateBatch(std::span<const uint64_t> items,
                   std::span<const int64_t> weights);

  /// Median-of-means estimate of F2 = sum_x f(x)^2.
  double EstimateF2() const;

  /// F2 estimate with the sqrt(2/s1) relative-error interval.
  Estimate F2Estimate(double confidence = 0.95) const;

  /// Estimated inner product <f, g> with another stream's sketch (median
  /// of means of coordinate products). Shapes and seed must match.
  Result<double> InnerProduct(const AmsSketch& other) const;

  /// Coordinate-wise sum; requires identical shape and seed.
  Status Merge(const AmsSketch& other);

  uint32_t estimators_per_group() const { return s1_; }
  uint32_t num_groups() const { return s2_; }
  size_t MemoryBytes() const { return counters_.size() * sizeof(int64_t); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<AmsSketch> GetPayload(ByteReader& payload);

 private:
  /// Both UpdateBatch overloads; `weights == nullptr` means unit weight.
  void UpdateBatchImpl(std::span<const uint64_t> items,
                       const int64_t* weights);

  uint32_t s1_;
  uint32_t s2_;
  uint64_t seed_;
  std::vector<KWiseHash> sign_hashes_;  // One 4-wise hash per estimator.
  std::vector<int64_t> counters_;       // s1_ * s2_ tug-of-war counters.
};

}  // namespace gems

#endif  // GEMS_MOMENTS_AMS_H_
