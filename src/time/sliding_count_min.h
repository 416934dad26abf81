#ifndef GEMS_TIME_SLIDING_COUNT_MIN_H_
#define GEMS_TIME_SLIDING_COUNT_MIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/estimate.h"
#include "core/io.h"
#include "core/wire.h"
#include "frequency/count_min.h"
#include "hash/hashed_batch.h"
#include "time/pane_ring.h"

/// \file
/// Sliding-window frequency estimation: a pane ring of Count-Min sketches.
/// Because Count-Min merge is a counter-wise sum, a windowed point query
/// never materializes the merged window — it reads the closed-pane cache's
/// counter and the current pane's counter for each row and sums them, so
/// QUERY stays O(depth) no matter how many panes are live.

namespace gems {

/// Count-Min over the trailing num_panes * pane_width time units. Flat
/// layout, non-conservative (pane merges must be order-independent).
class SlidingCountMin : public WireCodec<SlidingCountMin> {
 public:
  /// Wire-format type tag, for registry dispatch.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kSlidingCountMin;

  SlidingCountMin(uint32_t width, uint32_t depth, uint64_t pane_width,
                  size_t num_panes, uint64_t seed = 0);

  SlidingCountMin(const SlidingCountMin&) = default;
  SlidingCountMin& operator=(const SlidingCountMin&) = default;
  SlidingCountMin(SlidingCountMin&&) = default;
  SlidingCountMin& operator=(SlidingCountMin&&) = default;

  /// Adds `weight` (>= 0) to the item's count at the newest timestamp seen.
  void Update(uint64_t item, int64_t weight = 1) {
    ring_.Update(ring_.last_timestamp(), item, weight);
  }

  /// Adds `weight` at `timestamp`; late timestamps clamp into the current
  /// pane instead of aborting.
  void UpdateAt(uint64_t timestamp, uint64_t item, int64_t weight = 1) {
    ring_.Update(timestamp, item, weight);
  }

  /// Batched unit-weight ingest into the current pane; byte-identical to
  /// calling Update() per item.
  void UpdateBatch(std::span<const uint64_t> items);

  /// Batched timestamped unit-weight ingest; pane runs are segmented and
  /// fed through the pane sketch's batched (SIMD-dispatched) path. State is
  /// byte-identical to calling UpdateAt() per item, in order.
  void UpdateBatchTimed(std::span<const uint64_t> timestamps,
                        std::span<const uint64_t> items);

  /// Ingest from a hashed batch (Count-Min re-hashes per row, so only the
  /// item and timestamp columns are consumed; the batch's seed need not
  /// match).
  void ApplyHashed(const HashedBatch& batch);

  /// Advances the window clock without adding data.
  void Advance(uint64_t now) { ring_.Advance(now); }

  /// Windowed point query: overestimate of the item's weight inside the
  /// window. O(depth); mutation-free and safe on the concurrent read path.
  uint64_t Estimate(uint64_t item) const;

  /// Windowed point query with the one-sided Markov interval against the
  /// window's total weight.
  gems::Estimate EstimateWithBounds(uint64_t item,
                                    double confidence = 0.95) const;

  /// Total weight currently inside the window.
  int64_t TotalWeight() const;

  /// Pane-wise merge; identical shape, seed, and window geometry required.
  Status Merge(const SlidingCountMin& other);

  uint32_t width() const { return ring_.prototype().width(); }
  uint32_t depth() const { return ring_.prototype().depth(); }
  uint64_t seed() const { return ring_.prototype().seed(); }
  uint64_t pane_width() const { return ring_.pane_width(); }
  size_t num_panes() const { return ring_.num_panes(); }
  uint64_t WindowSpan() const { return ring_.WindowSpan(); }
  size_t NumLivePanes() const { return ring_.NumLivePanes(); }
  uint64_t last_timestamp() const { return ring_.last_timestamp(); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<SlidingCountMin> GetPayload(ByteReader& payload);

 private:
  PaneRing<CountMinSketch> ring_;
};

}  // namespace gems

#endif  // GEMS_TIME_SLIDING_COUNT_MIN_H_
