#ifndef GEMS_QUANTILES_QDIGEST_H_
#define GEMS_QUANTILES_QDIGEST_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/wire.h"

/// \file
/// q-digest (Shrivastava, Buragohain, Agrawal & Suri, SenSys 2004):
/// quantiles over a fixed integer universe [0, 2^bits), designed for the
/// sensor-network aggregation setting the paper describes — its selling
/// point was mergability for distributed data before "mergeable summaries"
/// was formalized. The digest is a subset of nodes of the complete binary
/// tree over the universe; the compression invariant keeps every
/// (non-leaf-level) node triple (node, sibling, parent) above n/k total
/// weight, bounding the node count by O(k log U) and rank error by
/// n * log(U) / k.

namespace gems {

/// q-digest over the universe [0, 2^universe_bits).
class QDigest : public WireCodec<QDigest> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kQDigest;

  /// `compression` is the k parameter; larger k = more nodes, less error.
  QDigest(int universe_bits, uint64_t compression);

  QDigest(const QDigest&) = default;
  QDigest& operator=(const QDigest&) = default;
  QDigest(QDigest&&) = default;
  QDigest& operator=(QDigest&&) = default;

  /// Adds `weight` occurrences of integer value `x` (x < 2^universe_bits).
  void Update(uint64_t x, uint64_t weight = 1);

  /// Approximate value at quantile q; requires >= 1 update.
  uint64_t Quantile(double q) const;

  /// Estimated rank of `x` (values <= x).
  uint64_t Rank(uint64_t x) const;

  /// Merges another q-digest (same universe and compression).
  Status Merge(const QDigest& other);

  uint64_t Count() const { return count_; }
  int universe_bits() const { return universe_bits_; }
  size_t NumNodes() const { return nodes_.size(); }
  size_t MemoryBytes() const {
    return nodes_.size() * (sizeof(uint64_t) * 2 + 2 * sizeof(void*));
  }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<QDigest> GetPayload(ByteReader& payload);

 private:
  /// Heap-style node ids: root = 1; children of v are 2v, 2v+1. Leaves for
  /// value x have id 2^universe_bits + x.
  uint64_t LeafId(uint64_t x) const {
    return (uint64_t{1} << universe_bits_) + x;
  }

  void CompressIfNeeded();
  void Compress();

  /// Collects nodes as (range_lo, range_hi, count) sorted for rank walks.
  struct NodeRange {
    uint64_t lo;
    uint64_t hi;
    uint64_t count;
  };
  std::vector<NodeRange> SortedRanges() const;

  int universe_bits_;
  uint64_t compression_;
  uint64_t count_ = 0;
  uint64_t updates_since_compress_ = 0;
  std::unordered_map<uint64_t, uint64_t> nodes_;  // node id -> count.
};

}  // namespace gems

#endif  // GEMS_QUANTILES_QDIGEST_H_
