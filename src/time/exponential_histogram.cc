#include "time/exponential_histogram.h"

#include <cmath>

#include "core/wire.h"

namespace gems {

namespace {

constexpr uint32_t kMaxBuckets = 1u << 24;

}  // namespace

ExponentialHistogram::ExponentialHistogram(uint64_t window, double epsilon)
    : window_(window), epsilon_(epsilon) {
  GEMS_CHECK(window >= 1);
  GEMS_CHECK(epsilon > 0.0 && epsilon <= 1.0);
  max_per_size_ = static_cast<size_t>(std::ceil(1.0 / epsilon));
}

void ExponentialHistogram::Add(uint64_t timestamp) {
  // A server must not crash on unsorted input: a late event is counted at
  // the current clock (at most one window of extra recency error for it).
  if (timestamp < last_timestamp_) timestamp = last_timestamp_;
  last_timestamp_ = timestamp;
  ExpireBefore(timestamp);
  buckets_.push_front(Bucket{timestamp, 1});
  Canonicalize();
}

void ExponentialHistogram::UpdateBatch(std::span<const uint64_t> timestamps) {
  for (const uint64_t timestamp : timestamps) Add(timestamp);
}

void ExponentialHistogram::Advance(uint64_t now) {
  if (now < last_timestamp_) return;  // Late timestamps clamp.
  last_timestamp_ = now;
  ExpireBefore(now);
}

void ExponentialHistogram::ExpireBefore(uint64_t now) {
  // A bucket is expired once its newest event is outside (now - W, now].
  while (!buckets_.empty() &&
         buckets_.back().timestamp + window_ <= now) {
    buckets_.pop_back();
  }
}

void ExponentialHistogram::Canonicalize() {
  // Walk from newest to oldest; whenever more than k buckets of one size
  // exist, merge the two OLDEST of that size into one of double size.
  // One insertion adds one size-1 bucket, so a single cascading pass
  // restores the invariant.
  size_t index = 0;
  while (index < buckets_.size()) {
    const uint64_t size = buckets_[index].size;
    // Count the run of buckets with this size starting at `index`
    // (buckets are kept in non-decreasing size order from front to back).
    size_t run_end = index;
    while (run_end < buckets_.size() && buckets_[run_end].size == size) {
      ++run_end;
    }
    const size_t run = run_end - index;
    if (run <= max_per_size_) {
      index = run_end;
      continue;
    }
    // Merge the two oldest of this size (positions run_end-1, run_end-2).
    // The merged bucket keeps the NEWER timestamp of the pair, so expiry
    // remains conservative for the estimator below.
    Bucket merged;
    merged.size = size * 2;
    merged.timestamp = buckets_[run_end - 2].timestamp;
    buckets_.erase(buckets_.begin() + run_end - 2,
                   buckets_.begin() + run_end);
    buckets_.insert(buckets_.begin() + (run_end - 2), merged);
    // The doubled bucket may overflow the next size class; continue from
    // the start of this run.
  }
}

uint64_t ExponentialHistogram::EstimateCount(uint64_t now) const {
  if (now < last_timestamp_) now = last_timestamp_;
  uint64_t total = 0;
  uint64_t oldest_size = 0;
  for (const Bucket& bucket : buckets_) {
    if (bucket.timestamp + window_ <= now) continue;  // Expired.
    total += bucket.size;
    oldest_size = bucket.size;  // Last surviving = oldest.
  }
  // The oldest bucket straddles the window boundary: only about half its
  // events are expected inside. Subtracting half its size is the standard
  // estimator, with error <= oldest_size/2 <= eps * true count.
  return total - oldest_size / 2;
}

void ExponentialHistogram::PutPayload(ByteSink& sink) const {
  sink.PutU64(window_);
  sink.PutDouble(epsilon_);
  sink.PutU64(last_timestamp_);
  sink.PutU32(static_cast<uint32_t>(buckets_.size()));
  // Newest-first, exactly the deque order, so restore is a push_back walk.
  for (const Bucket& bucket : buckets_) {
    sink.PutU64(bucket.timestamp);
    sink.PutVarint(bucket.size);
  }
}

Result<ExponentialHistogram> ExponentialHistogram::GetPayload(
    ByteReader& reader) {
  uint64_t window = 0, last_timestamp = 0;
  double epsilon = 0.0;
  uint32_t count = 0;
  if (Status s = reader.GetU64(&window); !s.ok()) return s;
  if (Status s = reader.GetDouble(&epsilon); !s.ok()) return s;
  if (Status s = reader.GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = reader.GetU32(&count); !s.ok()) return s;
  if (window == 0) {
    return Status::Corruption("exponential histogram: bad window");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0 || epsilon > 1.0) {
    return Status::Corruption("exponential histogram: bad epsilon");
  }
  if (count > kMaxBuckets) {
    return Status::Corruption("exponential histogram: too many buckets");
  }
  ExponentialHistogram histogram(window, epsilon);
  histogram.last_timestamp_ = last_timestamp;
  uint64_t prev_size = 0;
  uint64_t prev_timestamp = UINT64_MAX;
  for (uint32_t i = 0; i < count; ++i) {
    Bucket bucket;
    if (Status s = reader.GetU64(&bucket.timestamp); !s.ok()) return s;
    if (Status s = reader.GetVarint(&bucket.size); !s.ok()) return s;
    // Invariants of a live histogram: sizes are powers of two and
    // non-decreasing newest to oldest, timestamps non-increasing, nothing
    // newer than the clock, nothing already expired.
    if (bucket.size == 0 || (bucket.size & (bucket.size - 1)) != 0 ||
        bucket.size < prev_size) {
      return Status::Corruption("exponential histogram: bad bucket size");
    }
    if (bucket.timestamp > prev_timestamp ||
        bucket.timestamp > last_timestamp ||
        bucket.timestamp + window <= last_timestamp) {
      return Status::Corruption("exponential histogram: bad bucket timestamp");
    }
    prev_size = bucket.size;
    prev_timestamp = bucket.timestamp;
    histogram.buckets_.push_back(bucket);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("exponential histogram: trailing payload bytes");
  }
  return histogram;
}

}  // namespace gems
