#include "quantiles/qdigest.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"
#include "core/wire.h"

namespace gems {

QDigest::QDigest(int universe_bits, uint64_t compression)
    : universe_bits_(universe_bits), compression_(compression) {
  GEMS_CHECK(universe_bits >= 1 && universe_bits <= 48);
  GEMS_CHECK(compression >= 1);
}

void QDigest::Update(uint64_t x, uint64_t weight) {
  GEMS_DCHECK(x < (uint64_t{1} << universe_bits_));
  GEMS_CHECK(weight >= 1);
  nodes_[LeafId(x)] += weight;
  count_ += weight;
  updates_since_compress_ += 1;
  CompressIfNeeded();
}

void QDigest::CompressIfNeeded() {
  // Compress once the node count could exceed ~3k (the theoretical bound),
  // or periodically by update count.
  if (nodes_.size() > 3 * compression_ ||
      updates_since_compress_ >= compression_) {
    Compress();
    updates_since_compress_ = 0;
  }
}

void QDigest::Compress() {
  const uint64_t threshold = count_ / compression_;
  if (threshold == 0) return;
  // Bottom-up: merge child pairs into parents while the triple is light.
  for (int depth = universe_bits_; depth >= 1; --depth) {
    const uint64_t level_begin = uint64_t{1} << depth;
    const uint64_t level_end = uint64_t{1} << (depth + 1);
    // Collect this level's live node ids first (mutation-safe).
    std::vector<uint64_t> level_nodes;
    for (const auto& [id, node_count] : nodes_) {
      if (id >= level_begin && id < level_end) level_nodes.push_back(id);
    }
    std::sort(level_nodes.begin(), level_nodes.end());
    for (uint64_t id : level_nodes) {
      const auto it = nodes_.find(id);
      if (it == nodes_.end()) continue;  // Already merged as a sibling.
      const uint64_t sibling = id ^ 1;
      const uint64_t parent = id >> 1;
      const auto sibling_it = nodes_.find(sibling);
      const uint64_t sibling_count =
          sibling_it == nodes_.end() ? 0 : sibling_it->second;
      const auto parent_it = nodes_.find(parent);
      const uint64_t parent_count =
          parent_it == nodes_.end() ? 0 : parent_it->second;
      if (it->second + sibling_count + parent_count <= threshold) {
        nodes_[parent] = parent_count + it->second + sibling_count;
        nodes_.erase(id);
        if (sibling_it != nodes_.end()) nodes_.erase(sibling);
      }
    }
  }
}

std::vector<QDigest::NodeRange> QDigest::SortedRanges() const {
  std::vector<NodeRange> ranges;
  ranges.reserve(nodes_.size());
  for (const auto& [id, node_count] : nodes_) {
    // Depth of the node: position of its leading bit; leaves at depth B.
    const int depth = FloorLog2(id);
    const int shift = universe_bits_ - depth;
    const uint64_t base = (id - (uint64_t{1} << depth)) << shift;
    ranges.push_back(
        NodeRange{base, base + ((uint64_t{1} << shift) - 1), node_count});
  }
  // Sort by right endpoint; ties broken smaller range first.
  std::sort(ranges.begin(), ranges.end(),
            [](const NodeRange& a, const NodeRange& b) {
              if (a.hi != b.hi) return a.hi < b.hi;
              return a.lo > b.lo;
            });
  return ranges;
}

uint64_t QDigest::Quantile(double q) const {
  GEMS_CHECK(count_ > 0);
  GEMS_CHECK(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  const auto ranges = SortedRanges();
  for (const NodeRange& range : ranges) {
    cumulative += range.count;
    if (static_cast<double>(cumulative) >= target) return range.hi;
  }
  return ranges.back().hi;
}

uint64_t QDigest::Rank(uint64_t x) const {
  uint64_t rank = 0;
  for (const NodeRange& range : SortedRanges()) {
    if (range.hi <= x) rank += range.count;
  }
  return rank;
}

Status QDigest::Merge(const QDigest& other) {
  if (universe_bits_ != other.universe_bits_ ||
      compression_ != other.compression_) {
    return Status::InvalidArgument(
        "QDigest merge requires equal universe and compression");
  }
  // A hostile image can carry any count; check every sum before anything
  // moves, so a refused merge leaves this digest as it was.
  uint64_t merged_count = 0;
  bool overflow = __builtin_add_overflow(count_, other.count_, &merged_count);
  for (const auto& [id, node_count] : other.nodes_) {
    if (overflow) break;
    const auto mine = nodes_.find(id);
    uint64_t sum;
    overflow = mine != nodes_.end() &&
               __builtin_add_overflow(mine->second, node_count, &sum);
  }
  if (overflow) {
    return Status::OutOfRange("QDigest merge overflows a node count or total");
  }
  for (const auto& [id, node_count] : other.nodes_) {
    nodes_[id] += node_count;
  }
  count_ = merged_count;
  Compress();
  return Status::Ok();
}

void QDigest::PutPayload(ByteSink& sink) const {
  sink.PutU8(static_cast<uint8_t>(universe_bits_));
  sink.PutU64(compression_);
  sink.PutU64(count_);
  sink.PutVarint(nodes_.size());
  // Canonical order so identical digests serialize to identical bytes.
  std::vector<std::pair<uint64_t, uint64_t>> sorted(nodes_.begin(),
                                                    nodes_.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [id, node_count] : sorted) {
    sink.PutVarint(id);
    sink.PutVarint(node_count);
  }
}

Result<QDigest> QDigest::GetPayload(ByteReader& r) {
  uint8_t universe_bits;
  uint64_t compression, count, num_nodes;
  if (Status su = r.GetU8(&universe_bits); !su.ok()) return su;
  if (Status sc = r.GetU64(&compression); !sc.ok()) return sc;
  if (Status sn = r.GetU64(&count); !sn.ok()) return sn;
  if (Status sz = r.GetVarint(&num_nodes); !sz.ok()) return sz;
  // A non-empty digest always holds a node; Quantile reads the last one.
  if (universe_bits < 1 || universe_bits > 48 || compression < 1 ||
      (count != 0 && num_nodes == 0)) {
    return Status::Corruption("invalid QDigest header");
  }
  QDigest digest(universe_bits, compression);
  digest.count_ = count;
  const uint64_t max_id = uint64_t{1} << (universe_bits + 1);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    uint64_t id, node_count;
    if (Status si = r.GetVarint(&id); !si.ok()) return si;
    if (Status sv = r.GetVarint(&node_count); !sv.ok()) return sv;
    if (id == 0 || id >= max_id) {
      return Status::Corruption("QDigest node id out of range");
    }
    digest.nodes_[id] = node_count;
  }
  return digest;
}

}  // namespace gems
