#ifndef GEMS_CARDINALITY_KMV_H_
#define GEMS_CARDINALITY_KMV_H_

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"

/// \file
/// KMV / Theta sketch: keep the k minimum hash values of the distinct items
/// (Bar-Yossef et al. 2002; productionized as the DataSketches Theta
/// sketch). Unlike register-based sketches, KMV supports full set algebra —
/// union, intersection, and difference — which is what the online
/// advertising scenario in the paper needs for "slice and dice" reach
/// reporting (how many distinct users saw campaign A AND campaign B?).

namespace gems {

/// Result of a theta-sketch set operation. Immutable: supports estimation
/// and further set operations, but not updates.
class ThetaResult {
 public:
  ThetaResult(double theta, std::vector<uint64_t> hashes);

  /// Estimated number of distinct items in the represented set:
  /// |retained hashes| / theta.
  double Estimate() const;

  /// Estimate with the binomial-sampling confidence interval.
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  double theta() const { return theta_; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

 private:
  double theta_;                  // Sampling threshold in (0, 1].
  std::vector<uint64_t> hashes_;  // Retained hashes, all < theta * 2^64.
};

/// KMV sketch of the k minimum hashes.
class KmvSketch : public WireCodec<KmvSketch> {
 public:
  /// Wire-format type tag, for View<KmvSketch> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kKmv;

  /// `k` >= 2: number of minimum hash values retained.
  explicit KmvSketch(uint32_t k, uint64_t seed = 0);

  /// Advisor-driven constructor: the smallest k whose standard error
  /// 1/sqrt(k-2) is <= `relative_error`. kInvalidArgument if
  /// `relative_error` is outside (0, 1).
  static Result<KmvSketch> ForRelativeError(double relative_error,
                                            uint64_t seed = 0);

  KmvSketch(const KmvSketch&) = default;
  KmvSketch& operator=(const KmvSketch&) = default;
  KmvSketch(KmvSketch&&) = default;
  KmvSketch& operator=(KmvSketch&&) = default;

  /// Adds an item (idempotent per item).
  void Update(uint64_t item);

  /// Batched ingest: hashes every item once in a hoisted loop, then admits
  /// hashes against a cached k-th-minimum threshold (most items fail the
  /// single compare and never touch the ordered set). State is
  /// byte-identical to per-item Update().
  void UpdateBatch(std::span<const uint64_t> items);

  /// Estimated distinct count: exact below k items, (k-1)/theta after.
  double Estimate() const;

  /// Estimate with the KMV standard error ~ 1/sqrt(k-2).
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  /// Union with another KMV sketch (same seed required, k may differ; the
  /// result keeps this sketch's k).
  Status Merge(const KmvSketch& other);

  /// Current sampling threshold theta in (0, 1].
  double Theta() const;

  /// Snapshot as an immutable theta result (for set algebra).
  ThetaResult ToTheta() const;

  /// Set operations in the theta-sketch algebra.
  static ThetaResult Union(const KmvSketch& a, const KmvSketch& b);
  static ThetaResult Intersect(const KmvSketch& a, const KmvSketch& b);
  /// Items in `a` but not in `b`.
  static ThetaResult Difference(const KmvSketch& a, const KmvSketch& b);

  uint32_t k() const { return k_; }
  size_t NumRetained() const { return hashes_.size(); }
  size_t MemoryBytes() const { return hashes_.size() * sizeof(uint64_t); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<KmvSketch> GetPayload(ByteReader& payload);

 private:
  /// gems::MergeFromView (core/summary.h) is the one public entry point;
  /// it calls this zero-copy member.
  template <typename S>
    requires MergeableSummary<S>
  friend Status MergeFromView(S& into, const View<S>& view);
  /// Union streamed straight off a wrapped serialized peer — no
  /// materialization. Byte-identical result to Merge(*view.Materialize()).
  Status MergeFromView(const View<KmvSketch>& view);

  /// A validated wire image: k, the seed, and the retained hashes (8 bytes
  /// each, little-endian, strictly ascending).
  struct WireHeader {
    uint32_t k = 0;
    uint64_t seed = 0;
    ByteSpan hashes;
    size_t count() const { return hashes.size() / 8; }
    uint64_t Hash(size_t i) const {
      return LoadLittleEndian<uint64_t>(hashes.data() + 8 * i);
    }
  };
  /// The one header parse, shared by GetPayload and MergeFromView so both
  /// refuse the same images with the same status.
  static Result<WireHeader> ReadWireHeader(ByteReader& payload);

  uint32_t k_;
  uint64_t seed_;
  std::set<uint64_t> hashes_;  // At most k smallest distinct hash values.
};

}  // namespace gems

#endif  // GEMS_CARDINALITY_KMV_H_
