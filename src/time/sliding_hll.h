#ifndef GEMS_TIME_SLIDING_HLL_H_
#define GEMS_TIME_SLIDING_HLL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cardinality/hyperloglog.h"
#include "core/estimate.h"
#include "core/io.h"
#include "hash/hashed_batch.h"
#include "time/pane_ring.h"

/// \file
/// Sliding-window distinct counting: a pane ring of HyperLogLogs. Each
/// pane_width-sized pane holds its own HLL; the window estimate merges the
/// live panes (register-wise max), and expired panes are dropped wholesale —
/// the ring-of-subsketches recipe production telemetry systems use to make
/// "distinct users in the last hour" a sketch query. Error is the HLL's
/// 1.04/sqrt(m) plus one pane of time quantization.

namespace gems {

/// HyperLogLog over the trailing num_panes * pane_width time units.
class SlidingHyperLogLog {
 public:
  /// Wire-format type tag, for registry dispatch.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kSlidingHyperLogLog;

  /// `precision` in [4, 18]; window = pane_width * num_panes time units.
  SlidingHyperLogLog(int precision, uint64_t pane_width, size_t num_panes,
                     uint64_t seed = 0);

  SlidingHyperLogLog(const SlidingHyperLogLog&) = default;
  SlidingHyperLogLog& operator=(const SlidingHyperLogLog&) = default;
  SlidingHyperLogLog(SlidingHyperLogLog&&) = default;
  SlidingHyperLogLog& operator=(SlidingHyperLogLog&&) = default;

  /// Adds an item at the newest timestamp seen (the untimed type-erased
  /// update shape: items land in the current pane).
  void Update(uint64_t item) { ring_.Update(ring_.last_timestamp(), item); }

  /// Adds an item observed at `timestamp`. Late timestamps clamp into the
  /// current pane instead of aborting.
  void UpdateAt(uint64_t timestamp, uint64_t item) {
    ring_.Update(timestamp, item);
  }

  /// Batched ingest into the current pane; byte-identical to calling
  /// Update() per item.
  void UpdateBatch(std::span<const uint64_t> items);

  /// Batched timestamped ingest: `timestamps` parallels `items`. Runs of
  /// items landing in one pane are segmented and fed through the pane
  /// HLL's batched (SIMD-dispatched) path; state is byte-identical to
  /// calling UpdateAt() per item, in order.
  void UpdateBatchTimed(std::span<const uint64_t> timestamps,
                        std::span<const uint64_t> items);

  /// Hash-reuse ingest from a batch hashed under this sketch's seed; uses
  /// the batch's timestamp column when it carries one.
  void ApplyHashed(const HashedBatch& batch);

  /// Advances to `timestamp` and exposes the pane it lands in for direct
  /// mutation (hash words through UpdateHash) — the stream engine's
  /// group-run entry point. The caller must only add data.
  HyperLogLog& SummaryAt(uint64_t timestamp) {
    return ring_.SummaryAt(timestamp);
  }

  /// Advances the window clock without adding data (rotates/expires
  /// panes). Late `now` clamps.
  void Advance(uint64_t now) { ring_.Advance(now); }

  /// Windowed distinct estimate. Mutation-free (safe on the concurrent
  /// epoch-published read path): merges the closed-pane cache with the
  /// current pane into a stack copy.
  double Estimate() const { return ring_.MergedWindow().Estimate(); }

  /// Windowed estimate with the HLL's normal-approximation interval.
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const {
    return ring_.MergedWindow().EstimateWithBounds(confidence);
  }

  /// Memoized merged window for single-writer callers (the engine): only
  /// re-merged after a mutation.
  const HyperLogLog& WindowSummary() { return ring_.WindowSummary(); }

  /// Pane-wise merge; both sketches need identical precision, seed, and
  /// window geometry.
  Status Merge(const SlidingHyperLogLog& other);

  int precision() const { return ring_.prototype().precision(); }
  uint64_t seed() const { return ring_.prototype().seed(); }
  uint64_t pane_width() const { return ring_.pane_width(); }
  size_t num_panes() const { return ring_.num_panes(); }
  uint64_t WindowSpan() const { return ring_.WindowSpan(); }
  size_t NumLivePanes() const { return ring_.NumLivePanes(); }
  uint64_t last_timestamp() const { return ring_.last_timestamp(); }

  std::vector<uint8_t> Serialize() const;
  /// Appends the wire envelope into a caller-owned buffer; byte-identical
  /// to Serialize().
  void SerializeTo(ByteSink& sink) const;
  static Result<SlidingHyperLogLog> Deserialize(std::span<const uint8_t> bytes);

 private:
  PaneRing<HyperLogLog> ring_;
};

}  // namespace gems

#endif  // GEMS_TIME_SLIDING_HLL_H_
