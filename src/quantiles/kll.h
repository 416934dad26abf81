#ifndef GEMS_QUANTILES_KLL_H_
#define GEMS_QUANTILES_KLL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/io.h"
#include "core/wire.h"

/// \file
/// KLL quantile sketch (Karnin, Lang & Liberty, FOCS 2016): the
/// space-optimal randomized quantile summary the paper presents as the
/// culmination of the MRL -> GK -> q-digest line. A stack of "compactors"
/// with geometrically decaying capacities: level h stores items with weight
/// 2^h; a full compactor sorts itself, keeps a random odd/even half, and
/// promotes it upward. Fully mergeable (concatenate compactors level-wise
/// and recompact), which is what the distributed substrate relies on.

namespace gems {

/// KLL sketch with parameter `k` (top-compactor capacity; error ~ 1/k).
class KllSketch : public WireCodec<KllSketch> {
 public:
  /// Wire-format type tag, for View<KllSketch> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kKll;

  explicit KllSketch(uint32_t k = 200, uint64_t seed = 0);

  /// Advisor-driven constructor: the smallest k whose rank error ~1/k is
  /// <= `rank_error`. kInvalidArgument if `rank_error` is outside (0, 1).
  static Result<KllSketch> ForRankError(double rank_error, uint64_t seed = 0);

  KllSketch(const KllSketch&) = default;
  KllSketch& operator=(const KllSketch&) = default;
  KllSketch(KllSketch&&) = default;
  KllSketch& operator=(KllSketch&&) = default;

  /// Inserts a value.
  void Update(double value);

  /// Batched ingest: bulk-appends to the level-0 compactor up to its
  /// capacity, compresses, and repeats. Consumes the same coin flips in
  /// the same order as per-item Update(), so state (including the Rng) is
  /// byte-identical to sequential ingest.
  void UpdateBatch(std::span<const double> values);

  /// Approximate value at quantile q in [0, 1]; requires >= 1 update.
  double Quantile(double q) const;

  /// Batched Quantile: one answer per point, each identical to
  /// Quantile(qs[i]), but the retained items are gathered and sorted once
  /// for the whole set instead of once per point — the emission path for
  /// windowed quantile queries asks for several points per group per
  /// window close.
  std::vector<double> Quantiles(std::span<const double> qs) const;

  /// Estimated number of inserted values <= `value`.
  uint64_t Rank(double value) const;

  /// CDF evaluated at the given split points (monotone, in [0, 1]).
  std::vector<double> Cdf(const std::vector<double>& split_points) const;

  /// Merges another KLL sketch (any k; the result keeps this sketch's k).
  Status Merge(const KllSketch& other);

  uint64_t Count() const { return count_; }
  uint32_t k() const { return k_; }
  size_t NumRetained() const;
  size_t MemoryBytes() const { return NumRetained() * sizeof(double); }
  int NumLevels() const { return static_cast<int>(compactors_.size()); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<KllSketch> GetPayload(ByteReader& payload);

  /// Capacity of the compactor `depth` levels below the top of a sketch
  /// with parameter k: max(8, ceil(k * (2/3)^depth)), the power read from a
  /// process-wide table (depth >= 0).
  static size_t CapacityForDepth(uint32_t k, int depth);

 private:
  /// Capacity of the compactor at `level` given the current top level.
  size_t CapacityAt(int level) const;
  /// Compacts any over-full levels, promoting halves upward.
  void CompressIfNeeded();

  uint32_t k_;
  uint64_t count_ = 0;
  Rng rng_;
  std::vector<std::vector<double>> compactors_;  // compactors_[h]: weight 2^h.
  size_t level0_capacity_;  // Cached CapacityAt(0) for the update fast path.
};

}  // namespace gems

#endif  // GEMS_QUANTILES_KLL_H_
