#ifndef GEMS_FREQUENCY_COUNT_MIN_H_
#define GEMS_FREQUENCY_COUNT_MIN_H_

#include <cstdint>
#include <map>
#include <optional>
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

/// \file
/// Count-Min sketch (Cormode & Muthukrishnan 2005). The paper presents it
/// as the streamlining of the Count sketch: drop the Rademacher signs, take
/// a minimum over rows instead of a median, and accept an L1 error
/// guarantee — count(x) <= estimate(x) <= count(x) + eps*N with
/// probability 1-delta for width w = ceil(e/eps), depth d = ceil(ln 1/delta).
/// Twitter's embedded-tweet view counting is the paper's running example of
/// this sketch in production.

namespace gems {

/// Count-Min sketch over non-negative weighted updates.
class CountMinSketch : public WireCodec<CountMinSketch> {
 public:
  /// Wire-format type tag, for View<CountMinSketch> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kCountMin;

  /// `width` counters per row, `depth` independent rows.
  /// With `conservative_update` enabled, Update raises each touched counter
  /// only to (current estimate + weight) — never above — which provably
  /// keeps the overestimate no worse and empirically much better, at the
  /// cost of losing mergeability of *in-flight* updates (merge itself
  /// remains valid: counters stay overestimates).
  ///
  /// `layout` selects the counter-array memory layout. kFlat is the classic
  /// row-major matrix; kBlocked (depth <= 8) packs all depth counters for a
  /// key into one cache-line 8-counter block chosen by a single hash, so an
  /// update touches one line instead of depth. Blocked rounds `width` up to
  /// a multiple of its per-row block columns; the wire format stays flat
  /// (blocked sketches serialize through a flat permutation plus a trailing
  /// layout byte). The two layouts hash differently — sketches merge only
  /// with their own layout.
  CountMinSketch(uint32_t width, uint32_t depth, uint64_t seed = 0,
                 bool conservative_update = false,
                 SketchLayout layout = SketchLayout::kFlat);

  /// Dimensions a sketch for the standard (eps, delta) guarantee.
  static CountMinSketch ForGuarantee(double epsilon, double delta,
                                     uint64_t seed = 0);

  /// Advisor-driven constructor for the (eps, delta) guarantee that
  /// surfaces invalid parameters as a Status instead of aborting:
  /// kInvalidArgument unless 0 < epsilon < 1 and 0 < delta < 1.
  static Result<CountMinSketch> ForErrorBound(double epsilon, double delta,
                                              uint64_t seed = 0,
                                              bool conservative_update = false);

  CountMinSketch(const CountMinSketch&) = default;
  CountMinSketch& operator=(const CountMinSketch&) = default;
  CountMinSketch(CountMinSketch&&) = default;
  CountMinSketch& operator=(CountMinSketch&&) = default;

  /// Adds `weight` (must be >= 0) to item's count.
  void Update(uint64_t item, int64_t weight = 1);

  /// Batched ingest of unit-weight items: hashes each chunk once per row in
  /// a hoisted loop (rows outer), so the counter additions stream through
  /// one row at a time. State is byte-identical to per-item Update().
  /// Conservative-update sketches fall back to the per-item path, because
  /// conservative updates are order-dependent.
  void UpdateBatch(std::span<const uint64_t> items);

  /// Weighted batched ingest; `weights` must parallel `items` and every
  /// weight must be >= 0.
  void UpdateBatch(std::span<const uint64_t> items,
                   std::span<const int64_t> weights);

  /// Point query: an overestimate of the item's total weight.
  uint64_t Estimate(uint64_t item) const;

  /// Batched point query: out[i] = Estimate(items[i]) for every i, with the
  /// per-row hashing hoisted and the min-reduce folded one row at a time.
  /// `out` must have room for items.size() results.
  void EstimateBatch(std::span<const uint64_t> items, uint64_t* out) const;

  /// Count-mean-min estimator (Deng & Rafiei 2007): subtracts each row's
  /// expected collision noise (N - counter) / (width - 1) and takes the
  /// median. Not one-sided like Estimate(item), but much more accurate for
  /// tail items on skewed streams; the E3 bench quantifies the trade.
  int64_t EstimateCountMeanMin(uint64_t item) const;

  /// Point query with the one-sided Markov bound interval:
  /// [estimate - eps*N, estimate] where eps = e/width.
  gems::Estimate EstimateWithBounds(uint64_t item,
                                    double confidence = 0.95) const;

  /// Estimated inner product of the two frequency vectors (min over rows of
  /// the row dot products); both sketches must share shape and seed.
  Result<double> InnerProduct(const CountMinSketch& other) const;

  /// Counter-wise sum; requires identical shape and seed.
  Status Merge(const CountMinSketch& other);

  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  int64_t TotalWeight() const { return total_; }
  bool conservative_update() const { return conservative_; }
  SketchLayout layout() const { return layout_; }
  /// Blocked-layout geometry (meaningful when layout() == kBlocked):
  /// columns each row owns inside a block, and the block count.
  uint32_t block_cols() const { return cols_; }
  uint64_t num_blocks() const { return num_blocks_; }
  size_t MemoryBytes() const { return counters_.size() * sizeof(uint64_t); }

  /// Raw counters (row-major for kFlat, block-major for kBlocked) and the
  /// bucket function, exposed for privacy-preserving releases that
  /// post-process the sketch. BucketOf is flat-layout only.
  const HugeVector<uint64_t>& counters() const { return counters_; }
  uint64_t BucketOf(uint32_t row, uint64_t item) const {
    return Bucket(row, item);
  }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<CountMinSketch> GetPayload(ByteReader& payload);

 private:
  /// gems::MergeFromView (core/summary.h) is the one public entry point;
  /// it calls this zero-copy member.
  template <typename S>
    requires MergeableSummary<S>
  friend Status MergeFromView(S& into, const View<S>& view);
  /// Counter-wise sum streamed straight off a wrapped serialized peer —
  /// no materialization. Byte-identical result to
  /// Merge(*view.Materialize()).
  Status MergeFromView(const View<CountMinSketch>& view);

  /// A validated wire image: the header, the layout, and a reader at the
  /// first of the width * depth counter varints (already walked).
  struct WireHeader {
    uint32_t width;
    uint32_t depth;
    uint64_t seed;
    bool conservative;
    int64_t total;
    SketchLayout layout;
    ByteReader counters;
  };
  /// The one header parse, shared by GetPayload and MergeFromView so both
  /// refuse the same images with the same status. A non-null `flat`
  /// receives the counters as a flat sketch, decoded on the validating walk.
  static Result<WireHeader> ReadWireHeader(ByteReader& payload,
                                           std::optional<CountMinSketch>* flat);
  /// Calls visit(slot) for each counter's storage slot in wire order.
  template <typename Visit>
  void ForEachWireSlot(Visit&& visit) const;

  uint64_t Bucket(uint32_t row, uint64_t item) const;
  void UpdateBatchConservative(std::span<const uint64_t> items);
  /// Fills out[0..depth) with the counter each row holds for `item`,
  /// layout-agnostic (the cold-path shared walk under EstimateCountMeanMin
  /// and the conservative per-item update).
  void RowCounters(uint64_t item, uint64_t* out) const;

  uint32_t width_;
  uint32_t depth_;
  uint64_t seed_;
  bool conservative_;
  SketchLayout layout_;
  // Blocked-layout geometry: each 8-counter block gives row r the `cols_`
  // slots starting at r * cols_; num_blocks_ * cols_ == width_.
  uint32_t cols_ = 0;
  uint64_t num_blocks_ = 0;
  int64_t total_ = 0;
  // kFlat: depth_ rows of width_ counters, row-major. kBlocked:
  // num_blocks_ cache-line blocks of 8 counters. Hugepage-backed above the
  // allocator threshold, 64-byte aligned always (blocks never straddle
  // lines).
  HugeVector<uint64_t> counters_;
  // Per-row derived hash seeds (DeriveSeed(seed_, row)); computed in the
  // constructor, never serialized. Unused by kBlocked (single-hash probes).
  std::vector<uint64_t> row_seeds_;
};

/// Streaming top-k tracker layered on a Count-Min sketch: the usual recipe
/// for heavy hitters when items arrive one at a time.
class CountMinHeavyHitters {
 public:
  CountMinHeavyHitters(uint32_t width, uint32_t depth, size_t k,
                       uint64_t seed = 0);

  void Update(uint64_t item, int64_t weight = 1);

  /// Current top candidates with their estimated counts, best first.
  std::vector<std::pair<uint64_t, uint64_t>> TopK() const;

  /// Items whose estimated count >= phi * N.
  std::vector<uint64_t> HeavyHitters(double phi) const;

  const CountMinSketch& sketch() const { return sketch_; }

 private:
  CountMinSketch sketch_;
  size_t k_;
  // Candidate set: estimated count -> item (min at begin()).
  std::multimap<uint64_t, uint64_t> heap_;
  std::map<uint64_t, std::multimap<uint64_t, uint64_t>::iterator> index_;
};

}  // namespace gems

#endif  // GEMS_FREQUENCY_COUNT_MIN_H_
