#include "frequency/count_min.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/prefetch.h"
#include "core/params.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"
#include "hash/murmur3.h"
#include "simd/dispatch.h"
#include "simd/internal.h"

namespace gems {
namespace {

using simd::internal::BlockColsFor;
using simd::internal::CmBlockCol;
using simd::internal::CmBlockedAddOne;
using simd::internal::CmBlockedMinOne;
using simd::internal::ForEachBlock;
using simd::internal::ForEachBlockedWireSlot;
using simd::internal::kCmBlockSlots;

// Two-phase software prefetch in the flat batched loops only pays once a
// row is big enough that its working set blows the caches — below this the
// lines are resident anyway and the extra modulo pass is pure cost.
constexpr size_t kPrefetchMinRowBytes = size_t{1} << 18;

}  // namespace

CountMinSketch::CountMinSketch(uint32_t width, uint32_t depth, uint64_t seed,
                               bool conservative_update, SketchLayout layout)
    : width_(width), depth_(depth), seed_(seed),
      conservative_(conservative_update), layout_(layout) {
  GEMS_CHECK(width >= 1);
  GEMS_CHECK(depth >= 1);
  if (layout_ == SketchLayout::kBlocked) {
    GEMS_CHECK(depth <= static_cast<uint32_t>(kCmBlockSlots));
    cols_ = BlockColsFor(depth);
    num_blocks_ = (static_cast<uint64_t>(width) + cols_ - 1) / cols_;
    width_ = static_cast<uint32_t>(num_blocks_ * cols_);
    counters_.assign(num_blocks_ * kCmBlockSlots, 0);
  } else {
    counters_.assign(static_cast<size_t>(width) * depth, 0);
  }
  row_seeds_.reserve(depth);
  for (uint32_t row = 0; row < depth; ++row) {
    row_seeds_.push_back(DeriveSeed(seed_, row));
  }
}

CountMinSketch CountMinSketch::ForGuarantee(double epsilon, double delta,
                                            uint64_t seed) {
  GEMS_CHECK(epsilon > 0.0 && epsilon < 1.0);
  GEMS_CHECK(delta > 0.0 && delta < 1.0);
  const uint32_t width =
      static_cast<uint32_t>(std::ceil(std::exp(1.0) / epsilon));
  const uint32_t depth =
      static_cast<uint32_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(width, std::max<uint32_t>(depth, 1), seed);
}

Result<CountMinSketch> CountMinSketch::ForErrorBound(double epsilon,
                                                     double delta,
                                                     uint64_t seed,
                                                     bool conservative_update) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    return Status::InvalidArgument("CountMin epsilon must be in (0, 1)");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("CountMin delta must be in (0, 1)");
  }
  return CountMinSketch(CountMinWidthFor(epsilon), CountMinDepthFor(delta),
                        seed, conservative_update);
}

uint64_t CountMinSketch::Bucket(uint32_t row, uint64_t item) const {
  return Hash64(item, row_seeds_[row]) % width_;
}

void CountMinSketch::Update(uint64_t item, int64_t weight) {
  GEMS_CHECK(weight >= 0);
  total_ += weight;
  if (layout_ == SketchLayout::kBlocked) {
    const Hash128 h = Murmur3_128_U64(item, seed_);
    uint64_t* const block = &counters_[(h.low % num_blocks_) * kCmBlockSlots];
    if (!conservative_) {
      CmBlockedAddOne(block, depth_, cols_, h.high,
                      static_cast<uint64_t>(weight));
      return;
    }
    // Conservative raise inside the one block: estimate and raise both
    // touch the same cache line, so the blocked layout keeps conservative
    // updates cheap too.
    const uint64_t target = CmBlockedMinOne(block, depth_, cols_, h.high) +
                            static_cast<uint64_t>(weight);
    const uint32_t col_mask = cols_ - 1;
    for (uint32_t row = 0; row < depth_; ++row) {
      uint64_t& counter = block[row * cols_ + CmBlockCol(h.high, row, col_mask)];
      counter = std::max(counter, target);
    }
    return;
  }
  if (!conservative_) {
    for (uint32_t row = 0; row < depth_; ++row) {
      counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)] +=
          static_cast<uint64_t>(weight);
    }
    return;
  }
  // Conservative update: raise each counter only as far as needed so that
  // the post-update minimum reflects the new estimate.
  uint64_t current = Estimate(item);
  const uint64_t target = current + static_cast<uint64_t>(weight);
  for (uint32_t row = 0; row < depth_; ++row) {
    uint64_t& counter =
        counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)];
    counter = std::max(counter, target);
  }
}

void CountMinSketch::UpdateBatchConservative(
    std::span<const uint64_t> items) {
  if (layout_ == SketchLayout::kBlocked) {
    // Conservative + blocked stays per-item: both the estimate and the
    // raise live in one cache line, so there is no cross-row hash walk to
    // hoist.
    for (uint64_t item : items) Update(item, 1);
    return;
  }
  // Conservative updates are order-dependent (each item must see the
  // counters its predecessors raised), so the counter pass stays
  // sequential — but the two Bucket() hash walks per item (Estimate, then
  // the raise) are not, and those get hoisted: hash each chunk once per
  // row through the dispatched kernel, then replay items in order against
  // the precomputed buckets. Byte-identical to per-item Update().
  const InvariantMod mod(width_);
  uint64_t hashes[256];
  std::vector<uint32_t> buckets(static_cast<size_t>(depth_) * 256);
  while (!items.empty()) {
    const size_t n = std::min(items.size(), std::size(hashes));
    for (uint32_t row = 0; row < depth_; ++row) {
      HashBatch(items.first(n), row_seeds_[row], hashes);
      uint32_t* const row_buckets = buckets.data() + row * 256;
      for (size_t i = 0; i < n; ++i) {
        row_buckets[i] = static_cast<uint32_t>(mod(hashes[i]));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      uint64_t current = ~uint64_t{0};
      for (uint32_t row = 0; row < depth_; ++row) {
        current = std::min(
            current, counters_[static_cast<size_t>(row) * width_ +
                               buckets[row * 256 + i]]);
      }
      const uint64_t target = current + 1;
      for (uint32_t row = 0; row < depth_; ++row) {
        uint64_t& counter = counters_[static_cast<size_t>(row) * width_ +
                                      buckets[row * 256 + i]];
        counter = std::max(counter, target);
      }
      ++total_;
    }
    items = items.subspan(n);
  }
}

void CountMinSketch::UpdateBatch(std::span<const uint64_t> items) {
  if (conservative_) {
    UpdateBatchConservative(items);
    return;
  }
  total_ += static_cast<int64_t>(items.size());
  const simd::SimdKernels& kernels = simd::Kernels();
  if (layout_ == SketchLayout::kBlocked) {
    // One fused kernel pass: hash once per item, prefetch the single block,
    // update all depth_ rows inside it. Matches per-item Update() exactly.
    kernels.cm_blocked_add(counters_.data(), num_blocks_, depth_, cols_,
                           seed_, items.data(), items.size());
    return;
  }
  const bool prefetch =
      static_cast<size_t>(width_) * sizeof(uint64_t) >= kPrefetchMinRowBytes;
  const InvariantMod mod(width_);
  uint64_t hashes[256];
  while (!items.empty()) {
    const size_t n = std::min(items.size(), std::size(hashes));
    // Rows outer: each row hashes the chunk once with its derived seed and
    // streams additions through that row's counters via the dispatched row
    // kernel (the per-probe modulo is strength-reduced inside it). Plain
    // additions commute, so the final counters match per-item Update()
    // exactly.
    for (uint32_t row = 0; row < depth_; ++row) {
      HashBatch(items.first(n), row_seeds_[row], hashes);
      uint64_t* const row_ptr =
          counters_.data() + static_cast<size_t>(row) * width_;
      if (prefetch) {
        // Two-phase touch: issue the chunk's target lines before the add
        // pass so the row kernel's stores hit lines already in flight. The
        // extra modulo pass is why this is gated on big rows.
        for (size_t i = 0; i < n; ++i) PrefetchForWrite(row_ptr + mod(hashes[i]));
      }
      kernels.cm_row_add(row_ptr, width_, hashes, n);
    }
    items = items.subspan(n);
  }
}

void CountMinSketch::UpdateBatch(std::span<const uint64_t> items,
                                 std::span<const int64_t> weights) {
  GEMS_CHECK(items.size() == weights.size());
  if (conservative_) {
    for (size_t i = 0; i < items.size(); ++i) Update(items[i], weights[i]);
    return;
  }
  const simd::SimdKernels& kernels = simd::Kernels();
  if (layout_ == SketchLayout::kBlocked) {
    for (size_t i = 0; i < items.size(); ++i) {
      GEMS_CHECK(weights[i] >= 0);
      total_ += weights[i];
    }
    ForEachBlock(counters_.data(), num_blocks_, seed_, items,
                 [&](uint64_t* block, uint64_t probe_bits, size_t i) {
                   CmBlockedAddOne(block, depth_, cols_, probe_bits,
                                   static_cast<uint64_t>(weights[i]));
                 });
    return;
  }
  uint64_t hashes[256];
  size_t offset = 0;
  while (offset < items.size()) {
    const size_t n = std::min(items.size() - offset, std::size(hashes));
    for (size_t i = 0; i < n; ++i) {
      GEMS_CHECK(weights[offset + i] >= 0);
      total_ += weights[offset + i];
    }
    for (uint32_t row = 0; row < depth_; ++row) {
      HashBatch(items.subspan(offset, n), row_seeds_[row], hashes);
      kernels.cm_row_add_weighted(
          counters_.data() + static_cast<size_t>(row) * width_, width_,
          hashes, weights.data() + offset, n);
    }
    offset += n;
  }
}

uint64_t CountMinSketch::Estimate(uint64_t item) const {
  if (layout_ == SketchLayout::kBlocked) {
    const Hash128 h = Murmur3_128_U64(item, seed_);
    return CmBlockedMinOne(&counters_[(h.low % num_blocks_) * kCmBlockSlots],
                           depth_, cols_, h.high);
  }
  uint64_t best = ~uint64_t{0};
  for (uint32_t row = 0; row < depth_; ++row) {
    best = std::min(
        best,
        counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)]);
  }
  return best;
}

void CountMinSketch::RowCounters(uint64_t item, uint64_t* out) const {
  if (layout_ == SketchLayout::kBlocked) {
    const Hash128 h = Murmur3_128_U64(item, seed_);
    const uint64_t* const block =
        &counters_[(h.low % num_blocks_) * kCmBlockSlots];
    const uint32_t col_mask = cols_ - 1;
    for (uint32_t row = 0; row < depth_; ++row) {
      out[row] = block[row * cols_ + CmBlockCol(h.high, row, col_mask)];
    }
    return;
  }
  for (uint32_t row = 0; row < depth_; ++row) {
    out[row] = counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)];
  }
}

void CountMinSketch::EstimateBatch(std::span<const uint64_t> items,
                                   uint64_t* out) const {
  // Batched min-reduce point query: hash each chunk once per row, then fold
  // that row's counters into the running minima with the dispatched row-min
  // kernel (gathers under AVX2). out[i] == Estimate(items[i]) exactly.
  const simd::SimdKernels& kernels = simd::Kernels();
  if (layout_ == SketchLayout::kBlocked) {
    ForEachBlock(counters_.data(), num_blocks_, seed_, items,
                 [&](const uint64_t* block, uint64_t probe_bits, size_t i) {
                   out[i] = CmBlockedMinOne(block, depth_, cols_, probe_bits);
                 });
    return;
  }
  uint64_t hashes[256];
  size_t offset = 0;
  while (offset < items.size()) {
    const size_t n = std::min(items.size() - offset, std::size(hashes));
    uint64_t* const chunk_out = out + offset;
    for (size_t i = 0; i < n; ++i) chunk_out[i] = ~uint64_t{0};
    for (uint32_t row = 0; row < depth_; ++row) {
      HashBatch(items.subspan(offset, n), row_seeds_[row], hashes);
      kernels.cm_row_min(counters_.data() + static_cast<size_t>(row) * width_,
                         width_, hashes, n, chunk_out);
    }
    offset += n;
  }
}

int64_t CountMinSketch::EstimateCountMeanMin(uint64_t item) const {
  std::vector<uint64_t> row_counters(depth_);
  RowCounters(item, row_counters.data());
  std::vector<double> row_estimates;
  row_estimates.reserve(depth_);
  for (uint32_t row = 0; row < depth_; ++row) {
    const double counter = static_cast<double>(row_counters[row]);
    const double noise = (static_cast<double>(total_) - counter) /
                         (static_cast<double>(width_) - 1.0);
    row_estimates.push_back(counter - noise);
  }
  std::nth_element(row_estimates.begin(),
                   row_estimates.begin() + row_estimates.size() / 2,
                   row_estimates.end());
  const double median = row_estimates[row_estimates.size() / 2];
  // Clamp into the always-valid Count-Min envelope [0, min-counter].
  const double upper = static_cast<double>(Estimate(item));
  return static_cast<int64_t>(std::clamp(median, 0.0, upper));
}

gems::Estimate CountMinSketch::EstimateWithBounds(uint64_t item,
                                                  double confidence) const {
  const double value = static_cast<double>(Estimate(item));
  const double eps = std::exp(1.0) / static_cast<double>(width_);
  gems::Estimate e;
  e.value = value;
  e.upper = value;  // CM never underestimates.
  e.lower = std::max(0.0, value - eps * static_cast<double>(total_));
  e.confidence = confidence;
  return e;
}

Result<double> CountMinSketch::InnerProduct(
    const CountMinSketch& other) const {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_ || layout_ != other.layout_) {
    return Status::InvalidArgument(
        "CountMin inner product requires identical shape, seed, and layout");
  }
  double best = std::numeric_limits<double>::infinity();
  if (layout_ == SketchLayout::kBlocked) {
    // Row r of the logical flat matrix is the union of every block's
    // [r*cols_, (r+1)*cols_) slots; the dot product is index-set invariant,
    // so walk those slots directly.
    for (uint32_t row = 0; row < depth_; ++row) {
      double dot = 0.0;
      for (uint64_t b = 0; b < num_blocks_; ++b) {
        const size_t base = b * kCmBlockSlots + row * cols_;
        for (uint32_t j = 0; j < cols_; ++j) {
          dot += static_cast<double>(counters_[base + j]) *
                 static_cast<double>(other.counters_[base + j]);
        }
      }
      best = std::min(best, dot);
    }
    return best;
  }
  for (uint32_t row = 0; row < depth_; ++row) {
    double dot = 0.0;
    for (uint32_t col = 0; col < width_; ++col) {
      const size_t i = static_cast<size_t>(row) * width_ + col;
      dot += static_cast<double>(counters_[i]) *
             static_cast<double>(other.counters_[i]);
    }
    best = std::min(best, dot);
  }
  return best;
}

Status CountMinSketch::Merge(const CountMinSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_ || layout_ != other.layout_) {
    return Status::InvalidArgument(
        "CountMin merge requires identical shape, seed, and layout");
  }
  int64_t merged_total = 0;
  if (__builtin_add_overflow(total_, other.total_, &merged_total)) {
    return Status::OutOfRange("CountMin merge overflows the total weight");
  }
  // Same layout means the storage arrays align element-for-element (blocked
  // padding slots are zero on both sides), so the counter-wise sum is
  // layout-agnostic.
  simd::Kernels().u64_add(counters_.data(), other.counters_.data(),
                          counters_.size());
  total_ = merged_total;
  return Status::Ok();
}

Result<CountMinSketch::WireHeader> CountMinSketch::ReadWireHeader(
    ByteReader& r, std::optional<CountMinSketch>* flat) {
  uint32_t width, depth;
  uint64_t seed;
  uint8_t conservative;
  int64_t total;
  if (Status sw = r.GetU32(&width); !sw.ok()) return sw;
  if (Status sd = r.GetU32(&depth); !sd.ok()) return sd;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (Status sc = r.GetU8(&conservative); !sc.ok()) return sc;
  if (Status st = r.GetI64(&total); !st.ok()) return st;
  if (width == 0 || depth == 0 ||
      static_cast<uint64_t>(width) * depth > (uint64_t{1} << 32)) {
    return Status::Corruption("invalid CountMin shape");
  }
  // Every counter is a varint of at least one byte: claim them all before
  // anything is allocated. The whole grid is then walked, so a truncated
  // image fails before a view merge moves a counter; a decode reads the
  // counters (wire order is the flat matrix) into `flat` on the same walk.
  const uint64_t n = static_cast<uint64_t>(width) * depth;
  if (Status sv = r.CheckColumn(n, 1); !sv.ok()) return sv;
  const ByteReader counters = r;
  if (flat != nullptr) {
    flat->emplace(width, depth, seed, conservative != 0);
    for (uint64_t& counter : (*flat)->counters_) {
      if (Status sv = r.GetVarint(&counter); !sv.ok()) return sv;
    }
  } else {
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t counter;
      if (Status sv = r.GetVarint(&counter); !sv.ok()) return sv;
    }
  }
  // Optional trailing layout byte (see PutPayload): absent or 0 is flat,
  // 1 is blocked.
  SketchLayout layout = SketchLayout::kFlat;
  if (!r.AtEnd()) {
    uint8_t layout_byte;
    if (Status sl = r.GetU8(&layout_byte); !sl.ok()) return sl;
    if (layout_byte > 1) {
      return Status::Corruption("invalid CountMin layout byte");
    }
    layout = static_cast<SketchLayout>(layout_byte);
  }
  if (layout == SketchLayout::kBlocked) {
    if (depth > static_cast<uint32_t>(kCmBlockSlots)) {
      // The blocked ctor aborts past one block's worth of rows.
      return Status::Corruption("CountMin blocked depth exceeds block");
    }
    if (width % BlockColsFor(depth) != 0) {
      // A blocked sketch always serializes its rounded width, so a width
      // that is not a multiple of the block columns cannot round-trip.
      return Status::Corruption("CountMin blocked width not block-aligned");
    }
  }
  return WireHeader{width, depth, seed, conservative != 0, total, layout,
                    counters};
}

template <typename Visit>
void CountMinSketch::ForEachWireSlot(Visit&& visit) const {
  if (layout_ == SketchLayout::kBlocked) {
    ForEachBlockedWireSlot(depth_, width_, cols_, visit);
    return;
  }
  for (uint64_t slot = 0; slot < counters_.size(); ++slot) visit(slot);
}

Status CountMinSketch::MergeFromView(const View<CountMinSketch>& view) {
  // GetPayload's header parse, then Merge's compatibility check, then the
  // counter sum streamed off the wrapped varints.
  ByteReader r = view.PayloadReader();
  Result<WireHeader> header = ReadWireHeader(r, nullptr);
  if (!header.ok()) return header.status();
  const WireHeader& wire = header.value();
  if (wire.width != width_ || wire.depth != depth_ || wire.seed != seed_ ||
      wire.layout != layout_) {
    return Status::InvalidArgument(
        "CountMin merge requires identical shape, seed, and layout");
  }
  // A hostile image can carry any total; refuse one that would overflow
  // before any counter moves.
  int64_t merged_total = 0;
  if (__builtin_add_overflow(total_, wire.total, &merged_total)) {
    return Status::OutOfRange("CountMin merge overflows the total weight");
  }
  ByteReader counters = wire.counters;
  ForEachWireSlot([&](uint64_t slot) {
    uint64_t counter = 0;
    (void)counters.GetVarint(&counter);  // ReadWireHeader walked them all.
    counters_[slot] += counter;
  });
  total_ = merged_total;
  return Status::Ok();
}

void CountMinSketch::PutPayload(ByteSink& sink) const {
  sink.PutU32(width_);
  sink.PutU32(depth_);
  sink.PutU64(seed_);
  sink.PutU8(conservative_ ? 1 : 0);
  sink.PutI64(total_);
  // Wire counters are always the logical flat matrix, row-major. A blocked
  // sketch adds one trailing layout byte so GetPayload rebuilds it blocked;
  // flat sketches write nothing extra, keeping their wire bytes identical
  // to every earlier release.
  ForEachWireSlot([&](uint64_t slot) { sink.PutVarint(counters_[slot]); });
  if (layout_ == SketchLayout::kBlocked) sink.PutU8(1);
}

Result<CountMinSketch> CountMinSketch::GetPayload(ByteReader& r) {
  std::optional<CountMinSketch> flat;
  Result<WireHeader> header = ReadWireHeader(r, &flat);
  if (!header.ok()) return header.status();
  const WireHeader& wire = header.value();
  flat->total_ = wire.total;
  if (wire.layout == SketchLayout::kFlat) return std::move(*flat);
  CountMinSketch blocked(wire.width, wire.depth, wire.seed, wire.conservative,
                         SketchLayout::kBlocked);
  blocked.total_ = wire.total;
  uint64_t i = 0;
  blocked.ForEachWireSlot(
      [&](uint64_t slot) { blocked.counters_[slot] = flat->counters_[i++]; });
  return blocked;
}

CountMinHeavyHitters::CountMinHeavyHitters(uint32_t width, uint32_t depth,
                                           size_t k, uint64_t seed)
    : sketch_(width, depth, seed), k_(k) {
  GEMS_CHECK(k >= 1);
}

void CountMinHeavyHitters::Update(uint64_t item, int64_t weight) {
  sketch_.Update(item, weight);
  const uint64_t estimate = sketch_.Estimate(item);

  const auto found = index_.find(item);
  if (found != index_.end()) {
    heap_.erase(found->second);
    index_[item] = heap_.emplace(estimate, item);
    return;
  }
  if (index_.size() < k_) {
    index_[item] = heap_.emplace(estimate, item);
    return;
  }
  // Replace the weakest candidate if this item now beats it.
  const auto weakest = heap_.begin();
  if (estimate > weakest->first) {
    index_.erase(weakest->second);
    heap_.erase(weakest);
    index_[item] = heap_.emplace(estimate, item);
  }
}

std::vector<std::pair<uint64_t, uint64_t>> CountMinHeavyHitters::TopK()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(heap_.size());
  for (auto it = heap_.rbegin(); it != heap_.rend(); ++it) {
    out.emplace_back(it->second, it->first);  // (item, count), best first.
  }
  return out;
}

std::vector<uint64_t> CountMinHeavyHitters::HeavyHitters(double phi) const {
  const double threshold =
      phi * static_cast<double>(sketch_.TotalWeight());
  std::vector<uint64_t> out;
  for (const auto& [count, item] : heap_) {
    if (static_cast<double>(count) >= threshold) out.push_back(item);
  }
  return out;
}

}  // namespace gems
