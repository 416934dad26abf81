#include "quantiles/kll.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "core/params.h"
#include "core/wire.h"

namespace gems {
namespace {

constexpr double kCapacityRatio = 2.0 / 3.0;
// Depths [0, 64]; a deeper level (no stream of fewer than 2^64 items
// builds one) falls back to the same std::pow call.
constexpr int kTabulatedDepths = 65;

// std::pow(kCapacityRatio, depth) for every tabulated depth, built once per
// process by the very expression each compaction used to evaluate per
// level, so every capacity (and so every byte) is unchanged and no sketch
// carries extra state.
const std::array<double, kTabulatedDepths>& CapacityRatioPowers() {
  static const std::array<double, kTabulatedDepths> powers = [] {
    std::array<double, kTabulatedDepths> out;
    for (int depth = 0; depth < kTabulatedDepths; ++depth) {
      out[depth] = std::pow(kCapacityRatio, depth);
    }
    return out;
  }();
  return powers;
}

}  // namespace

KllSketch::KllSketch(uint32_t k, uint64_t seed) : k_(k), rng_(seed) {
  GEMS_CHECK(k >= 8);
  compactors_.emplace_back();
  level0_capacity_ = CapacityAt(0);
}

size_t KllSketch::CapacityForDepth(uint32_t k, int depth) {
  // Top level gets capacity k; each level below decays by 2/3, floored at
  // 8 (the DataSketches floor: tiny bottom buffers compact too often for
  // negligible space savings).
  const double ratio = depth < kTabulatedDepths
                           ? CapacityRatioPowers()[depth]
                           : std::pow(kCapacityRatio, depth);
  const double cap = static_cast<double>(k) * ratio;
  return std::max<size_t>(8, static_cast<size_t>(std::ceil(cap)));
}

size_t KllSketch::CapacityAt(int level) const {
  return CapacityForDepth(k_, static_cast<int>(compactors_.size()) - 1 - level);
}

Result<KllSketch> KllSketch::ForRankError(double rank_error, uint64_t seed) {
  if (!(rank_error > 0.0 && rank_error < 1.0)) {
    return Status::InvalidArgument("KLL rank error must be in (0, 1)");
  }
  return KllSketch(KllKFor(rank_error), seed);
}

void KllSketch::Update(double value) {
  compactors_[0].push_back(value);
  ++count_;
  if (compactors_[0].size() >= level0_capacity_) CompressIfNeeded();
}

void KllSketch::UpdateBatch(std::span<const double> values) {
  while (!values.empty()) {
    // Re-acquire level 0 each round: CompressIfNeeded may reallocate the
    // compactor stack.
    std::vector<double>& level0 = compactors_[0];
    const size_t room = level0_capacity_ - level0.size();
    const size_t n = std::min(values.size(), room);
    level0.insert(level0.end(), values.begin(), values.begin() + n);
    count_ += n;
    if (level0.size() >= level0_capacity_) CompressIfNeeded();
    values = values.subspan(n);
  }
}

void KllSketch::CompressIfNeeded() {
  for (size_t level = 0; level < compactors_.size(); ++level) {
    if (compactors_[level].size() < CapacityAt(static_cast<int>(level))) {
      continue;
    }
    if (level + 1 == compactors_.size()) compactors_.emplace_back();
    std::vector<double>& current = compactors_[level];
    // std::sort is unstable, but it is deterministic for a given input,
    // so the compacted bytes are reproducible.
    std::sort(current.begin(), current.end());
    // Keep a random parity half; promote it with doubled weight.
    const size_t offset = rng_.NextU64() & 1;
    std::vector<double>& above = compactors_[level + 1];
    for (size_t i = offset; i < current.size(); i += 2) {
      above.push_back(current[i]);
    }
    current.clear();
  }
  level0_capacity_ = CapacityAt(0);
}

uint64_t KllSketch::Rank(double value) const {
  uint64_t rank = 0;
  for (size_t level = 0; level < compactors_.size(); ++level) {
    const uint64_t weight = uint64_t{1} << level;
    for (double item : compactors_[level]) {
      if (item <= value) rank += weight;
    }
  }
  return rank;
}

double KllSketch::Quantile(double q) const {
  const std::array<double, 1> qs = {q};
  return Quantiles(qs)[0];
}

std::vector<double> KllSketch::Quantiles(std::span<const double> qs) const {
  GEMS_CHECK(count_ > 0);
  // Gather (value, weight) pairs, sort by value, prefix-sum the weights —
  // once for the whole point set — then binary-search each point's target
  // rank. Per point this returns the first value whose cumulative weight
  // reaches q * total, exactly the single-point CDF walk.
  std::vector<std::pair<double, uint64_t>> weighted;
  weighted.reserve(NumRetained());
  for (size_t level = 0; level < compactors_.size(); ++level) {
    const uint64_t weight = uint64_t{1} << level;
    for (double item : compactors_[level]) weighted.emplace_back(item, weight);
  }
  std::sort(weighted.begin(), weighted.end());
  uint64_t cumulative = 0;
  for (auto& [value, weight] : weighted) {
    cumulative += weight;
    weight = cumulative;  // In place: weight becomes the cumulative rank.
  }
  const uint64_t total = cumulative;
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    GEMS_CHECK(q >= 0.0 && q <= 1.0);
    const double target = q * static_cast<double>(total);
    size_t lo = 0, hi = weighted.size() - 1;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (static_cast<double>(weighted[mid].second) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    out.push_back(weighted[lo].first);
  }
  return out;
}

std::vector<double> KllSketch::Cdf(
    const std::vector<double>& split_points) const {
  std::vector<double> out;
  out.reserve(split_points.size());
  const double n = static_cast<double>(count_);
  for (double split : split_points) {
    out.push_back(n == 0 ? 0.0 : static_cast<double>(Rank(split)) / n);
  }
  return out;
}

Status KllSketch::Merge(const KllSketch& other) {
  // Refuse a wrapping total before any level moves (a hostile image can
  // carry any count).
  uint64_t merged_count = 0;
  if (__builtin_add_overflow(count_, other.count_, &merged_count)) {
    return Status::OutOfRange("KLL merge overflows the item count");
  }
  while (compactors_.size() < other.compactors_.size()) {
    compactors_.emplace_back();
  }
  for (size_t level = 0; level < other.compactors_.size(); ++level) {
    compactors_[level].insert(compactors_[level].end(),
                              other.compactors_[level].begin(),
                              other.compactors_[level].end());
  }
  count_ = merged_count;
  CompressIfNeeded();
  return Status::Ok();
}

size_t KllSketch::NumRetained() const {
  size_t total = 0;
  for (const std::vector<double>& compactor : compactors_) {
    total += compactor.size();
  }
  return total;
}

Status KllSketch::MergeFromView(const View<KllSketch>& view) {
  Result<KllSketch> other = view.Materialize();
  if (!other.ok()) return other.status();
  return Merge(other.value());
}

std::vector<uint8_t> KllSketch::Serialize() const {
  std::vector<uint8_t> out;
  ByteSink sink(&out);
  SerializeTo(sink);
  return out;
}

void KllSketch::SerializeTo(ByteSink& sink) const {
  EnvelopeBuilder env(sink, kTypeId);
  sink.PutU32(k_);
  sink.PutU64(count_);
  sink.PutVarint(compactors_.size());
  for (const std::vector<double>& compactor : compactors_) {
    sink.PutVarint(compactor.size());
    for (double item : compactor) sink.PutDouble(item);
  }
}

Result<KllSketch> KllSketch::Deserialize(std::span<const uint8_t> bytes) {
  Result<ByteReader> payload = OpenEnvelope(SketchTypeId::kKll, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r = std::move(payload).value();
  uint32_t k;
  uint64_t count, num_levels;
  if (Status sk = r.GetU32(&k); !sk.ok()) return sk;
  if (Status sc = r.GetU64(&count); !sc.ok()) return sc;
  if (Status sl = r.GetVarint(&num_levels); !sl.ok()) return sl;
  if (k < 8 || num_levels == 0 || num_levels > 64) {
    return Status::Corruption("invalid KLL header");
  }
  KllSketch sketch(k, /*seed=*/count ^ 0x5EED);
  sketch.count_ = count;
  sketch.compactors_.resize(num_levels);
  sketch.level0_capacity_ = sketch.CapacityAt(0);
  for (uint64_t level = 0; level < num_levels; ++level) {
    uint64_t size;
    if (Status ss = r.GetVarint(&size); !ss.ok()) return ss;
    if (size > count + 1) return Status::Corruption("KLL level too large");
    sketch.compactors_[level].resize(size);
    for (double& item : sketch.compactors_[level]) {
      if (Status sd = r.GetDouble(&item); !sd.ok()) return sd;
    }
  }
  return sketch;
}

}  // namespace gems
