#ifndef GEMS_TIME_EXPONENTIAL_HISTOGRAM_H_
#define GEMS_TIME_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/io.h"
#include "core/wire.h"

/// \file
/// Exponential histogram (Datar, Gionis, Indyk & Motwani 2002): counts the
/// number of events in the last W time units of a stream within a
/// (1 + eps) factor, using O((1/eps) log^2 W) bits — the canonical
/// sliding-window sketch of the streaming era the paper surveys. Buckets
/// of exponentially growing sizes are merged so that at most k = ceil(1/eps)
/// buckets of each size exist; only the oldest bucket is uncertain.

namespace gems {

/// Sliding-window event counter.
class ExponentialHistogram : public WireCodec<ExponentialHistogram> {
 public:
  /// Wire-format type tag, for registry dispatch.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kExponentialHistogram;

  /// Counts events in the trailing `window` time units with relative
  /// error <= epsilon.
  ExponentialHistogram(uint64_t window, double epsilon);

  ExponentialHistogram(const ExponentialHistogram&) = default;
  ExponentialHistogram& operator=(const ExponentialHistogram&) = default;
  ExponentialHistogram(ExponentialHistogram&&) = default;
  ExponentialHistogram& operator=(ExponentialHistogram&&) = default;

  /// Records one event at `timestamp`. Late timestamps clamp to the newest
  /// one seen (the event is counted as if it happened now).
  void Add(uint64_t timestamp);

  /// Item-shaped alias for Add: the "item" is the event's timestamp. This
  /// is the update shape the registry's type-erased path uses.
  void Update(uint64_t timestamp) { Add(timestamp); }

  /// Batched ingest; identical to calling Add() per timestamp, in order.
  void UpdateBatch(std::span<const uint64_t> timestamps);

  /// Timed-update shape: records one event at `timestamp`. The item
  /// payload is irrelevant to a pure event counter and is ignored.
  void UpdateAt(uint64_t timestamp, uint64_t /*item*/) { Add(timestamp); }

  /// Batched timed ingest: one event per timestamp; items are ignored.
  void UpdateBatchTimed(std::span<const uint64_t> timestamps,
                        std::span<const uint64_t> /*items*/) {
    UpdateBatch(timestamps);
  }

  /// Advances the window clock without recording an event, expiring
  /// buckets that have left the window. Late `now` clamps.
  void Advance(uint64_t now);

  /// Estimated number of events in (now - window, now]; a `now` earlier
  /// than the newest timestamp seen clamps to it.
  uint64_t EstimateCount(uint64_t now) const;

  /// Estimated events in the window ending at the newest timestamp seen.
  double Estimate() const {
    return static_cast<double>(EstimateCount(last_timestamp_));
  }

  /// Number of buckets currently held (space accounting).
  size_t NumBuckets() const { return buckets_.size(); }

  uint64_t window() const { return window_; }
  double epsilon() const { return epsilon_; }
  uint64_t last_timestamp() const { return last_timestamp_; }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<ExponentialHistogram> GetPayload(ByteReader& payload);

 private:
  struct Bucket {
    uint64_t timestamp;  // Most recent event folded into this bucket.
    uint64_t size;       // Number of events (a power of two).
  };

  /// Drops buckets whose newest event has left the window.
  void ExpireBefore(uint64_t now);
  /// Restores the <= k buckets-per-size invariant by merging oldest pairs.
  void Canonicalize();

  uint64_t window_;
  double epsilon_;
  size_t max_per_size_;  // k = ceil(1/eps) (+1 transiently).
  uint64_t last_timestamp_ = 0;
  // Newest buckets at the front, oldest at the back.
  std::deque<Bucket> buckets_;
};

}  // namespace gems

#endif  // GEMS_TIME_EXPONENTIAL_HISTOGRAM_H_
