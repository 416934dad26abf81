#ifndef GEMS_QUANTILES_REQ_H_
#define GEMS_QUANTILES_REQ_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"

/// \file
/// Relative-Error Quantiles sketch (Cormode, Karnin, Liberty, Thaler &
/// Veselý, PODS 2021 best paper — one of the award papers the survey
/// highlights). Where KLL guarantees ADDITIVE rank error eps*n uniformly,
/// REQ guarantees MULTIPLICATIVE error: the rank of a returned value is
/// within (1 +/- eps) of the true rank measured from the accurate end.
/// This high-rank-accuracy (HRA) variant keeps extreme high quantiles
/// (p99.9, p99.99 — SLO territory) essentially exact while compacting the
/// low ranks aggressively.
///
/// Mechanism (following the DataSketches realization): a stack of
/// compactors with weight 2^level. Each compactor holds `num_sections`
/// sections of `section_size` values; when full it sorts itself and
/// compacts only a low-rank prefix of sections — the high-rank suffix is
/// never touched. How many sections compact follows the binary schedule
/// (trailing-zero count of the compaction counter), and the section count
/// doubles as a compactor ages, which is what converts uniform error into
/// relative error.

namespace gems {

/// REQ sketch; high-rank-accuracy by default, low-rank-accuracy optional.
class ReqSketch {
 public:
  /// `k`: section size (even, >= 4). Relative rank error shrinks ~ 1/k.
  /// `high_rank_accuracy`: true protects high quantiles (p99.99...), false
  /// protects low quantiles (p0.0001...) — pick the end your application
  /// cares about.
  explicit ReqSketch(uint32_t k = 32, uint64_t seed = 0,
                     bool high_rank_accuracy = true);

  ReqSketch(const ReqSketch&) = default;
  ReqSketch& operator=(const ReqSketch&) = default;
  ReqSketch(ReqSketch&&) = default;
  ReqSketch& operator=(ReqSketch&&) = default;

  /// Inserts a value.
  void Update(double value);

  /// Approximate value at quantile q in [0, 1]; requires >= 1 update.
  double Quantile(double q) const;

  /// Estimated number of inserted values <= `value`.
  uint64_t Rank(double value) const;

  /// Merges another REQ sketch (same k).
  Status Merge(const ReqSketch& other);

  uint64_t Count() const { return count_; }
  uint32_t k() const { return k_; }
  bool high_rank_accuracy() const { return high_rank_accuracy_; }
  size_t NumRetained() const;
  size_t MemoryBytes() const { return NumRetained() * sizeof(double); }
  int NumLevels() const { return static_cast<int>(compactors_.size()); }

 private:
  struct Compactor {
    uint32_t num_sections = 3;
    uint64_t num_compactions = 0;
    std::vector<double> values;  // Unsorted between compactions.
  };

  size_t CapacityOf(const Compactor& compactor) const {
    return static_cast<size_t>(2) * compactor.num_sections * k_;
  }
  /// Compacts `level` once (must be at capacity), promoting upward.
  void Compact(size_t level);
  void CompressIfNeeded();

  uint32_t k_;
  bool high_rank_accuracy_;
  uint64_t count_ = 0;
  Rng rng_;
  std::vector<Compactor> compactors_;  // compactors_[h]: weight 2^h.

  // REQ has no wire image, so the merge-overflow test forges a count
  // through this peer instead.
  friend struct ReqSketchTestPeer;
};

}  // namespace gems

#endif  // GEMS_QUANTILES_REQ_H_
