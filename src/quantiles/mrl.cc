#include "quantiles/mrl.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/check.h"

namespace gems {

MrlSketch::MrlSketch(size_t num_buffers, size_t buffer_size)
    : num_buffers_(num_buffers), buffer_size_(buffer_size) {
  GEMS_CHECK(num_buffers >= 2);
  GEMS_CHECK(buffer_size >= 2);
  buffers_.resize(num_buffers);
  incoming_.reserve(buffer_size);
}

MrlSketch MrlSketch::ForAccuracy(double epsilon, uint64_t expected_n) {
  GEMS_CHECK(epsilon > 0.0 && epsilon < 0.5);
  GEMS_CHECK(expected_n >= 1);
  // MRL error after the collapse tree is roughly (#levels)/(2*buffer_size)
  // in rank fraction; levels ~ log2(eps*n). Solve conservatively.
  const double levels =
      std::max(2.0, std::log2(epsilon * static_cast<double>(expected_n)) + 2);
  const size_t buffer_size = static_cast<size_t>(
      std::max(8.0, std::ceil(levels / epsilon / 2.0)));
  const size_t num_buffers = static_cast<size_t>(levels) + 2;
  return MrlSketch(num_buffers, buffer_size);
}

void MrlSketch::Update(double value) {
  incoming_.push_back(value);
  ++count_;
  if (incoming_.size() < buffer_size_) return;
  // Seal the incoming buffer as a weight-1 buffer.
  CollapseIfNeeded();
  for (Buffer& buffer : buffers_) {
    if (buffer.weight == 0) {
      buffer.weight = 1;
      buffer.values = std::move(incoming_);
      std::sort(buffer.values.begin(), buffer.values.end());
      incoming_.clear();
      incoming_.reserve(buffer_size_);
      return;
    }
  }
  GEMS_CHECK(false);  // CollapseIfNeeded must have freed a slot.
}

void MrlSketch::CollapseIfNeeded() {
  size_t full = 0;
  for (const Buffer& buffer : buffers_) full += buffer.weight > 0 ? 1 : 0;
  if (full < num_buffers_) return;

  // Collapse the two lowest-weight buffers into one.
  size_t first = num_buffers_, second = num_buffers_;
  for (size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i].weight == 0) continue;
    if (first == num_buffers_ ||
        buffers_[i].weight < buffers_[first].weight) {
      second = first;
      first = i;
    } else if (second == num_buffers_ ||
               buffers_[i].weight < buffers_[second].weight) {
      second = i;
    }
  }
  GEMS_CHECK(first != num_buffers_ && second != num_buffers_);
  Buffer merged =
      Collapse({&buffers_[first], &buffers_[second]}, buffer_size_);
  buffers_[first] = std::move(merged);
  buffers_[second] = Buffer{};
}

MrlSketch::Buffer MrlSketch::Collapse(
    const std::vector<const Buffer*>& inputs, size_t buffer_size) {
  // Weighted merge of all input elements.
  std::vector<std::pair<double, uint64_t>> weighted;
  uint64_t total_weight = 0;
  for (const Buffer* input : inputs) {
    for (double value : input->values) {
      weighted.emplace_back(value, input->weight);
    }
    total_weight += input->weight;
  }
  std::sort(weighted.begin(), weighted.end());
  const double total_mass =
      static_cast<double>(total_weight) * static_cast<double>(buffer_size);

  Buffer output;
  output.weight = total_weight;
  output.values.reserve(buffer_size);
  // Select elements at weighted ranks (j + 0.5) * total / buffer_size.
  size_t cursor = 0;
  double cumulative = 0;
  for (size_t j = 0; j < buffer_size; ++j) {
    const double target =
        (static_cast<double>(j) + 0.5) * total_mass /
        static_cast<double>(buffer_size);
    while (cursor + 1 < weighted.size() &&
           cumulative + static_cast<double>(weighted[cursor].second) <
               target) {
      cumulative += static_cast<double>(weighted[cursor].second);
      ++cursor;
    }
    output.values.push_back(weighted[cursor].first);
  }
  return output;
}

uint64_t MrlSketch::Rank(double value) const {
  uint64_t rank = 0;
  for (double v : incoming_) {
    if (v <= value) ++rank;
  }
  for (const Buffer& buffer : buffers_) {
    if (buffer.weight == 0) continue;
    const uint64_t below = static_cast<uint64_t>(
        std::upper_bound(buffer.values.begin(), buffer.values.end(), value) -
        buffer.values.begin());
    rank += below * buffer.weight;
  }
  return rank;
}

double MrlSketch::Quantile(double q) const {
  GEMS_CHECK(count_ > 0);
  GEMS_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<std::pair<double, uint64_t>> weighted;
  for (double v : incoming_) weighted.emplace_back(v, 1);
  for (const Buffer& buffer : buffers_) {
    if (buffer.weight == 0) continue;
    for (double v : buffer.values) weighted.emplace_back(v, buffer.weight);
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

Status MrlSketch::Merge(const MrlSketch& other) {
  if (buffer_size_ != other.buffer_size_) {
    return Status::InvalidArgument("MRL merge requires equal buffer size");
  }
  // Raw values stream in normally; full buffers are adopted, collapsing
  // as needed to stay within the buffer budget.
  for (double value : other.incoming_) Update(value);
  for (const Buffer& theirs : other.buffers_) {
    if (theirs.weight == 0) continue;
    CollapseIfNeeded();
    bool placed = false;
    for (Buffer& mine : buffers_) {
      if (mine.weight == 0) {
        mine = theirs;
        placed = true;
        break;
      }
    }
    GEMS_CHECK(placed);
    count_ += theirs.weight * theirs.values.size();
  }
  return Status::Ok();
}

size_t MrlSketch::NumRetained() const {
  size_t total = incoming_.size();
  for (const Buffer& buffer : buffers_) total += buffer.values.size();
  return total;
}

}  // namespace gems
