#include "quantiles/req.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/check.h"

namespace gems {

ReqSketch::ReqSketch(uint32_t k, uint64_t seed, bool high_rank_accuracy)
    : k_(k), high_rank_accuracy_(high_rank_accuracy), rng_(seed) {
  GEMS_CHECK(k >= 4 && k % 2 == 0);
  compactors_.emplace_back();
}

void ReqSketch::Update(double value) {
  Compactor& bottom = compactors_[0];
  bottom.values.push_back(value);
  ++count_;
  // Fast path: only scan the stack when the bottom compactor is full.
  if (bottom.values.size() >= CapacityOf(bottom)) CompressIfNeeded();
}

void ReqSketch::CompressIfNeeded() {
  for (size_t level = 0; level < compactors_.size(); ++level) {
    if (compactors_[level].values.size() >= CapacityOf(compactors_[level])) {
      Compact(level);
    }
  }
}

void ReqSketch::Compact(size_t level) {
  if (level + 1 == compactors_.size()) compactors_.emplace_back();
  Compactor& compactor = compactors_[level];
  std::sort(compactor.values.begin(), compactor.values.end());

  // Binary schedule: the number of low sections entering this compaction
  // is 1 + (trailing zeros of the compaction counter), capped so at least
  // half the compactor (the high-rank suffix) is always protected.
  ++compactor.num_compactions;
  uint32_t sections_to_compact =
      1 + static_cast<uint32_t>(
              CountTrailingZeros64(compactor.num_compactions));
  sections_to_compact = std::min(sections_to_compact,
                                 compactor.num_sections);
  // Once the schedule has cycled through every section, the compactor has
  // aged: double its section count (growing capacity), which is what
  // yields the relative-error guarantee.
  if (compactor.num_compactions >=
      (uint64_t{1} << compactor.num_sections)) {
    compactor.num_sections *= 2;
    compactor.num_compactions = 0;
  }

  const size_t compact_count = std::min(
      static_cast<size_t>(sections_to_compact) * k_,
      compactor.values.size() / 2);
  if (compact_count < 2) return;

  // The compaction region is the prefix at the UNprotected end: the
  // lowest ranks for high-rank accuracy, the highest ranks otherwise.
  const size_t offset = rng_.NextU64() & 1;
  std::vector<double>& above = compactors_[level + 1].values;
  if (high_rank_accuracy_) {
    for (size_t i = offset; i < compact_count; i += 2) {
      above.push_back(compactor.values[i]);
    }
    compactor.values.erase(compactor.values.begin(),
                           compactor.values.begin() + compact_count);
  } else {
    const size_t begin = compactor.values.size() - compact_count;
    for (size_t i = begin + offset; i < compactor.values.size(); i += 2) {
      above.push_back(compactor.values[i]);
    }
    compactor.values.resize(begin);
  }
}

uint64_t ReqSketch::Rank(double value) const {
  uint64_t rank = 0;
  for (size_t level = 0; level < compactors_.size(); ++level) {
    const uint64_t weight = uint64_t{1} << level;
    for (double item : compactors_[level].values) {
      if (item <= value) rank += weight;
    }
  }
  return rank;
}

double ReqSketch::Quantile(double q) const {
  GEMS_CHECK(count_ > 0);
  GEMS_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<std::pair<double, uint64_t>> weighted;
  weighted.reserve(NumRetained());
  for (size_t level = 0; level < compactors_.size(); ++level) {
    const uint64_t weight = uint64_t{1} << level;
    for (double item : compactors_[level].values) {
      weighted.emplace_back(item, weight);
    }
  }
  std::sort(weighted.begin(), weighted.end());
  uint64_t total = 0;
  for (const auto& [value, weight] : weighted) total += weight;
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (static_cast<double>(cumulative) >= target) return value;
  }
  return weighted.back().first;
}

Status ReqSketch::Merge(const ReqSketch& other) {
  if (k_ != other.k_ || high_rank_accuracy_ != other.high_rank_accuracy_) {
    return Status::InvalidArgument(
        "REQ merge requires equal k and accuracy mode");
  }
  uint64_t merged_count = 0;
  if (__builtin_add_overflow(count_, other.count_, &merged_count)) {
    return Status::OutOfRange("REQ merge overflows the item count");
  }
  while (compactors_.size() < other.compactors_.size()) {
    compactors_.emplace_back();
  }
  for (size_t level = 0; level < other.compactors_.size(); ++level) {
    Compactor& mine = compactors_[level];
    const Compactor& theirs = other.compactors_[level];
    mine.values.insert(mine.values.end(), theirs.values.begin(),
                       theirs.values.end());
    // Adopt the larger section count so the merged compactor keeps the
    // older lineage's accuracy budget.
    mine.num_sections = std::max(mine.num_sections, theirs.num_sections);
  }
  count_ = merged_count;
  CompressIfNeeded();
  return Status::Ok();
}

size_t ReqSketch::NumRetained() const {
  size_t total = 0;
  for (const Compactor& compactor : compactors_) {
    total += compactor.values.size();
  }
  return total;
}

}  // namespace gems
