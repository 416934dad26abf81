#include "time/decayed_count_min.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/wire.h"
#include "hash/hash.h"

namespace gems {

namespace {

// Renormalize well before double underflow: scale_ only shrinks, and
// stored counters grow as 1/scale_, so fold the scale back in while both
// are comfortably inside the normal range.
constexpr double kRenormalizeBelow = 1e-50;

constexpr uint64_t kMaxMatrixCells = uint64_t{1} << 28;

}  // namespace

DecayedCountMin::DecayedCountMin(uint32_t width, uint32_t depth,
                                 double half_life, uint64_t seed)
    : width_(width), depth_(depth), seed_(seed), half_life_(half_life) {
  GEMS_CHECK(width >= 1);
  GEMS_CHECK(depth >= 1);
  GEMS_CHECK(std::isfinite(half_life) && half_life > 0.0);
  counters_.assign(static_cast<size_t>(width) * depth, 0.0);
  row_seeds_.reserve(depth);
  for (uint32_t row = 0; row < depth; ++row) {
    row_seeds_.push_back(DeriveSeed(seed_, row));
  }
}

uint64_t DecayedCountMin::Bucket(uint32_t row, uint64_t item) const {
  return Hash64(item, row_seeds_[row]) % width_;
}

void DecayedCountMin::Advance(uint64_t now) {
  if (!started_) {
    started_ = true;
    last_timestamp_ = now;
    return;
  }
  if (now <= last_timestamp_) return;  // Late timestamps clamp.
  const double dt = static_cast<double>(now - last_timestamp_);
  last_timestamp_ = now;
  scale_ *= std::exp2(-dt / half_life_);
  if (scale_ < kRenormalizeBelow) Renormalize();
}

void DecayedCountMin::Renormalize() {
  for (double& counter : counters_) counter *= scale_;
  total_ *= scale_;
  scale_ = 1.0;
}

void DecayedCountMin::Deposit(uint64_t item, double weight) {
  GEMS_CHECK(weight >= 0.0);
  started_ = true;
  const double inflated = weight / scale_;
  total_ += inflated;
  for (uint32_t row = 0; row < depth_; ++row) {
    counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)] +=
        inflated;
  }
}

void DecayedCountMin::UpdateBatch(std::span<const uint64_t> items) {
  const double inflated = 1.0 / scale_;
  started_ = started_ || !items.empty();
  total_ += inflated * static_cast<double>(items.size());
  for (uint32_t row = 0; row < depth_; ++row) {
    double* const row_ptr = counters_.data() + static_cast<size_t>(row) * width_;
    const uint64_t row_seed = row_seeds_[row];
    for (const uint64_t item : items) {
      row_ptr[Hash64(item, row_seed) % width_] += inflated;
    }
  }
}

void DecayedCountMin::UpdateBatchTimed(std::span<const uint64_t> timestamps,
                                       std::span<const uint64_t> items) {
  const size_t n = std::min(timestamps.size(), items.size());
  size_t i = 0;
  while (i < n) {
    Advance(timestamps[i]);
    // Batch the run of items whose timestamps do not advance the clock
    // (equal or late ones clamp), sharing one scale lookup.
    size_t j = i + 1;
    while (j < n && timestamps[j] <= last_timestamp_) ++j;
    UpdateBatch(items.subspan(i, j - i));
    i = j;
  }
}

void DecayedCountMin::ApplyHashed(const HashedBatch& batch) {
  if (batch.empty()) return;
  if (!batch.has_timestamps()) {
    UpdateBatch(batch.items());
    return;
  }
  UpdateBatchTimed(batch.timestamps(), batch.items());
}

double DecayedCountMin::Estimate(uint64_t item) const {
  double best = counters_[Bucket(0, item)];
  for (uint32_t row = 1; row < depth_; ++row) {
    best = std::min(
        best, counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)]);
  }
  return best * scale_;
}

gems::Estimate DecayedCountMin::EstimateWithBounds(uint64_t item,
                                                   double confidence) const {
  const double value = Estimate(item);
  const double eps = std::exp(1.0) / static_cast<double>(width_);
  gems::Estimate e;
  e.value = value;
  e.upper = value;  // CM never underestimates.
  e.lower = std::max(0.0, value - eps * TotalWeight());
  e.confidence = confidence;
  return e;
}

Status DecayedCountMin::Merge(const DecayedCountMin& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_ || half_life_ != other.half_life_) {
    return Status::InvalidArgument(
        "decayed CM merge requires identical shape, seed, and half_life");
  }
  if (!other.started_) return Status::Ok();
  // Align both clocks to the later of the two, then fold other's logical
  // counters in, decayed from its clock to the merged one.
  Advance(other.last_timestamp_);
  const double decay =
      other.last_timestamp_ >= last_timestamp_
          ? 1.0
          : std::exp2(
                -static_cast<double>(last_timestamp_ - other.last_timestamp_) /
                half_life_);
  const double factor = other.scale_ * decay / scale_;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i] * factor;
  }
  total_ += other.total_ * factor;
  return Status::Ok();
}

void DecayedCountMin::PutPayload(ByteSink& sink) const {
  sink.PutU32(width_);
  sink.PutU32(depth_);
  sink.PutU64(seed_);
  sink.PutDouble(half_life_);
  sink.PutU8(started_ ? 1 : 0);
  sink.PutU64(last_timestamp_);
  // Logical (decayed) units: the restored sketch starts at scale 1, so the
  // round trip is byte-identical regardless of the writer's scale.
  sink.PutDouble(total_ * scale_);
  for (const double counter : counters_) sink.PutDouble(counter * scale_);
}

Result<DecayedCountMin> DecayedCountMin::GetPayload(ByteReader& reader) {
  uint8_t started = 0;
  uint32_t width = 0, depth = 0;
  uint64_t seed = 0, last_timestamp = 0;
  double half_life = 0.0, total = 0.0;
  if (Status s = reader.GetU32(&width); !s.ok()) return s;
  if (Status s = reader.GetU32(&depth); !s.ok()) return s;
  if (Status s = reader.GetU64(&seed); !s.ok()) return s;
  if (Status s = reader.GetDouble(&half_life); !s.ok()) return s;
  if (Status s = reader.GetU8(&started); !s.ok()) return s;
  if (Status s = reader.GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = reader.GetDouble(&total); !s.ok()) return s;
  if (width == 0 || depth == 0 ||
      static_cast<uint64_t>(width) * depth > kMaxMatrixCells) {
    return Status::Corruption("decayed CM: bad shape");
  }
  if (!std::isfinite(half_life) || half_life <= 0.0) {
    return Status::Corruption("decayed CM: bad half_life");
  }
  if (started > 1 || !std::isfinite(total) || total < 0.0) {
    return Status::Corruption("decayed CM: bad state");
  }
  if (reader.remaining() != static_cast<size_t>(width) * depth * 8) {
    return Status::Corruption("decayed CM: counter matrix size mismatch");
  }
  DecayedCountMin sketch(width, depth, half_life, seed);
  if (Status s = reader.GetDoubles(sketch.counters_); !s.ok()) return s;
  for (const double counter : sketch.counters_) {
    if (!std::isfinite(counter) || counter < 0.0) {
      return Status::Corruption("decayed CM: bad counter");
    }
  }
  sketch.started_ = started != 0;
  sketch.last_timestamp_ = started != 0 ? last_timestamp : 0;
  sketch.total_ = total;
  if (started == 0 && (last_timestamp != 0 || total != 0.0)) {
    return Status::Corruption("decayed CM: unstarted sketch carries state");
  }
  return sketch;
}

}  // namespace gems
