#ifndef GEMS_FREQUENCY_COUNT_SKETCH_H_
#define GEMS_FREQUENCY_COUNT_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hugepage.h"
#include "common/layout.h"
#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"
#include "hash/polynomial.h"

/// \file
/// Count sketch (Charikar, Chen & Farach-Colton 2002) — proposed, as the
/// paper recounts, by academic visitors to Google for finding frequent
/// search queries. Each row adds s_i(x) * weight to one bucket, where s_i
/// is a 4-wise independent Rademacher sign; the estimate is the median over
/// rows of s_i(x) * C[i][h_i(x)]. Errors are bounded by the L2 norm of the
/// residual frequency vector, so it beats Count-Min on skewed data and
/// supports negative updates (turnstile streams). It is also the
/// building block of sparse JL transforms and of FetchSGD's gradient
/// compression (both implemented elsewhere in this library).

namespace gems {

/// Count sketch over signed weighted updates.
class CountSketch : public WireCodec<CountSketch> {
 public:
  /// Wire-format type tag, for View<CountSketch> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kCountSketch;

  /// `layout` selects the counter-array memory layout: kFlat is the classic
  /// row-major matrix with per-row Carter-Wegman hashes; kBlocked
  /// (depth <= 8) packs all depth counters for a key into one cache-line
  /// block chosen by a single Murmur3 hash, with row signs drawn from the
  /// same hash's high bits. Blocked rounds `width` up to a multiple of its
  /// per-row block columns; the wire format stays flat. The two layouts
  /// hash differently — sketches merge only with their own layout.
  CountSketch(uint32_t width, uint32_t depth, uint64_t seed = 0,
              SketchLayout layout = SketchLayout::kFlat);

  CountSketch(const CountSketch&) = default;
  CountSketch& operator=(const CountSketch&) = default;
  CountSketch(CountSketch&&) = default;
  CountSketch& operator=(CountSketch&&) = default;

  /// Adds `weight` (may be negative) to the item's count.
  void Update(uint64_t item, int64_t weight = 1);

  /// Batched ingest of unit-weight items, rows outer: each row's hash
  /// functions and counter base are hoisted out of the item loop. Signed
  /// additions commute, so state is byte-identical to per-item Update().
  void UpdateBatch(std::span<const uint64_t> items);

  /// Weighted batched ingest; `weights` must parallel `items` (weights may
  /// be negative — turnstile semantics).
  void UpdateBatch(std::span<const uint64_t> items,
                   std::span<const int64_t> weights);

  /// Median-of-rows unbiased point estimate (may be negative).
  int64_t Estimate(uint64_t item) const;

  /// Point estimate with the L2 guarantee interval: +/- sqrt(F2 / width)
  /// per row, sharpened by the median over depth rows.
  gems::Estimate EstimateWithBounds(uint64_t item,
                                    double confidence = 0.95) const;

  /// Estimate of the second frequency moment F2 (median over rows of the
  /// row's sum of squared counters) — each row is an AMS sketch.
  double EstimateF2() const;

  /// Counter-wise sum; requires identical shape and seed.
  Status Merge(const CountSketch& other);

  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }
  SketchLayout layout() const { return layout_; }
  size_t MemoryBytes() const { return counters_.size() * sizeof(int64_t); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<CountSketch> GetPayload(ByteReader& payload);

 private:
  /// gems::MergeFromView (core/summary.h) is the one public entry point;
  /// it calls this zero-copy member.
  template <typename S>
    requires MergeableSummary<S>
  friend Status MergeFromView(S& into, const View<S>& view);
  /// Counter-wise sum streamed straight off a wrapped serialized peer —
  /// no materialization. Byte-identical result to
  /// Merge(*view.Materialize()).
  Status MergeFromView(const View<CountSketch>& view);

  /// A validated wire image: the header, the layout, and the width * depth
  /// little-endian counters in wire (flat row-major) order.
  struct WireHeader {
    uint32_t width;
    uint32_t depth;
    uint64_t seed;
    SketchLayout layout;
    ByteSpan counters;
  };
  /// The one header parse, shared by GetPayload and MergeFromView so both
  /// refuse the same images with the same status.
  static Result<WireHeader> ReadWireHeader(ByteReader& payload);

  uint64_t Bucket(uint32_t row, uint64_t item) const;
  int Sign(uint32_t row, uint64_t item) const;
  /// Both UpdateBatch overloads; `weights == nullptr` means unit weight.
  void UpdateBatchImpl(std::span<const uint64_t> items, const int64_t* weights);

  uint32_t width_;
  uint32_t depth_;
  uint64_t seed_;
  SketchLayout layout_;
  // Blocked-layout geometry: each 8-counter block gives row r the `cols_`
  // slots starting at r * cols_; num_blocks_ * cols_ == width_.
  uint32_t cols_ = 0;
  uint64_t num_blocks_ = 0;
  std::vector<KWiseHash> bucket_hashes_;  // 2-wise per row (kFlat only).
  std::vector<KWiseHash> sign_hashes_;    // 4-wise per row (kFlat only).
  // kFlat: depth_ rows of width_, row-major. kBlocked: num_blocks_
  // cache-line blocks of 8 counters. Hugepage-backed above the allocator
  // threshold, 64-byte aligned always.
  HugeVector<int64_t> counters_;
};

}  // namespace gems

#endif  // GEMS_FREQUENCY_COUNT_SKETCH_H_
