#include "frequency/dyadic_count_min.h"

#include "common/bits.h"
#include "common/check.h"
#include "hash/hash.h"

namespace gems {

DyadicCountMin::DyadicCountMin(int universe_bits, uint32_t width,
                               uint32_t depth, uint64_t seed)
    : universe_bits_(universe_bits) {
  GEMS_CHECK(universe_bits >= 1 && universe_bits <= 63);
  levels_.reserve(universe_bits + 1);
  for (int level = 0; level <= universe_bits; ++level) {
    levels_.emplace_back(width, depth, DeriveSeed(seed, level));
  }
}

void DyadicCountMin::Update(uint64_t x, int64_t weight) {
  GEMS_DCHECK(x < (uint64_t{1} << universe_bits_));
  total_ += weight;
  for (int level = 0; level <= universe_bits_; ++level) {
    levels_[level].Update(x >> level, weight);
  }
}

uint64_t DyadicCountMin::EstimateRangeSum(uint64_t lo, uint64_t hi) const {
  if (lo > hi) return 0;
  // Standard dyadic decomposition: walk the range greedily, consuming the
  // largest aligned dyadic block that fits at each step.
  uint64_t sum = 0;
  uint64_t pos = lo;
  const uint64_t end = hi;
  while (pos <= end) {
    // Largest level at which pos is block-aligned and the block fits in
    // the remaining range. Level 0 (single point) always fits.
    int level = pos == 0 ? universe_bits_ : CountTrailingZeros64(pos);
    if (level > universe_bits_) level = universe_bits_;
    while (level > 0 && pos + ((uint64_t{1} << level) - 1) > end) {
      --level;
    }
    sum += levels_[level].Estimate(pos >> level);
    const uint64_t block = uint64_t{1} << level;
    if (pos + block < pos) break;  // Overflow guard at the top of range.
    pos += block;
  }
  return sum;
}

uint64_t DyadicCountMin::EstimateQuantile(double q) const {
  GEMS_CHECK(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(total_);
  // Descend the dyadic tree: at each level choose the child whose subtree
  // prefix crosses the target.
  uint64_t prefix = 0;  // Accumulated weight strictly left of current node.
  uint64_t node = 0;    // Current node id at `level`.
  for (int level = universe_bits_ - 1; level >= 0; --level) {
    const uint64_t left_child = node << 1;
    const uint64_t left_weight = levels_[level].Estimate(left_child);
    if (prefix + left_weight >= target) {
      node = left_child;
    } else {
      prefix += left_weight;
      node = left_child + 1;
    }
  }
  return node;
}

Status DyadicCountMin::Merge(const DyadicCountMin& other) {
  if (universe_bits_ != other.universe_bits_ ||
      levels_.size() != other.levels_.size()) {
    return Status::InvalidArgument("DyadicCountMin merge shape mismatch");
  }
  // Every level holds the same total as the whole, so this check also
  // keeps each level merge below from failing halfway through the levels.
  int64_t merged_total = 0;
  if (__builtin_add_overflow(total_, other.total_, &merged_total)) {
    return Status::OutOfRange(
        "DyadicCountMin merge overflows the total weight");
  }
  for (size_t i = 0; i < levels_.size(); ++i) {
    Status s = levels_[i].Merge(other.levels_[i]);
    if (!s.ok()) return s;
  }
  total_ = merged_total;
  return Status::Ok();
}

size_t DyadicCountMin::MemoryBytes() const {
  size_t bytes = 0;
  for (const CountMinSketch& level : levels_) bytes += level.MemoryBytes();
  return bytes;
}

}  // namespace gems
