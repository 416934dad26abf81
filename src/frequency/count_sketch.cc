#include "frequency/count_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/numeric.h"
#include "common/prefetch.h"
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
using simd::internal::CsBlockedAddOne;
using simd::internal::CsBlockSign;
using simd::internal::ForEachBlock;
using simd::internal::kCmBlockSlots;

// Same big-row gate as Count-Min's flat prefetch pass (see count_min.cc).
constexpr size_t kPrefetchMinRowBytes = size_t{1} << 18;

}  // namespace

CountSketch::CountSketch(uint32_t width, uint32_t depth, uint64_t seed,
                         SketchLayout layout)
    : width_(width), depth_(depth), seed_(seed), layout_(layout) {
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
  bucket_hashes_.reserve(depth);
  sign_hashes_.reserve(depth);
  for (uint32_t row = 0; row < depth; ++row) {
    bucket_hashes_.emplace_back(2, DeriveSeed(seed, 2 * row));
    sign_hashes_.emplace_back(4, DeriveSeed(seed, 2 * row + 1));
  }
}

uint64_t CountSketch::Bucket(uint32_t row, uint64_t item) const {
  return bucket_hashes_[row].EvalRange(item, width_);
}

int CountSketch::Sign(uint32_t row, uint64_t item) const {
  return sign_hashes_[row].EvalSign(item);
}

void CountSketch::Update(uint64_t item, int64_t weight) {
  if (layout_ == SketchLayout::kBlocked) {
    const Hash128 h = Murmur3_128_U64(item, seed_);
    CsBlockedAddOne(&counters_[(h.low % num_blocks_) * kCmBlockSlots], depth_,
                    cols_, h.high, weight);
    return;
  }
  for (uint32_t row = 0; row < depth_; ++row) {
    counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)] +=
        Sign(row, item) * weight;
  }
}

void CountSketch::UpdateBatch(std::span<const uint64_t> items) {
  UpdateBatchImpl(items, nullptr);
}

void CountSketch::UpdateBatch(std::span<const uint64_t> items,
                              std::span<const int64_t> weights) {
  GEMS_CHECK(items.size() == weights.size());
  UpdateBatchImpl(items, weights.data());
}

void CountSketch::UpdateBatchImpl(std::span<const uint64_t> items,
                                  const int64_t* weights) {
  const simd::SimdKernels& kernels = simd::Kernels();
  if (layout_ == SketchLayout::kBlocked) {
    // One pass: hash once per item, prefetch the single block, signed-update
    // all depth_ rows inside it (nullptr weights = unit).
    ForEachBlock(counters_.data(), num_blocks_, seed_, items,
                 [&](int64_t* block, uint64_t probe_bits, size_t i) {
                   CsBlockedAddOne(block, depth_, cols_, probe_bits,
                                   weights == nullptr ? 1 : weights[i]);
                 });
    return;
  }
  // kFlat: chunked rows-outer kernel. Per chunk: reduce every key into the
  // Carter-Wegman field once (per-item Update pays that division twice per
  // row — bucket and sign), then each row evaluates its two polynomials
  // through the mod61_poly_eval kernel (exact, so the same words as
  // EvalReduced), strength-reduces the bucket modulo through a hoisted
  // InvariantMod and streams the signed additions into the row. Counter
  // additions commute (and wrap, like Update's), so the result is
  // byte-identical to sequential Update().
  const bool prefetch =
      static_cast<size_t>(width_) * sizeof(int64_t) >= kPrefetchMinRowBytes;
  const InvariantMod mod(width_);
  uint64_t reduced[256];
  uint64_t evals[256];
  uint32_t buckets[256];
  int64_t signed_weights[256];
  for (size_t offset = 0; offset < items.size(); offset += std::size(reduced)) {
    const size_t n = std::min(items.size() - offset, std::size(reduced));
    for (size_t i = 0; i < n; ++i) {
      reduced[i] = KWiseHash::ReduceKey(items[offset + i]);
    }
    for (uint32_t row = 0; row < depth_; ++row) {
      const KWiseHash& bucket_hash = bucket_hashes_[row];
      const KWiseHash& sign_hash = sign_hashes_[row];
      kernels.mod61_poly_eval(reduced, n, bucket_hash.coefficients(),
                              bucket_hash.k(), evals);
      for (size_t i = 0; i < n; ++i) {
        buckets[i] = static_cast<uint32_t>(mod(evals[i]));
      }
      kernels.mod61_poly_eval(reduced, n, sign_hash.coefficients(),
                              sign_hash.k(), evals);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t w =
            weights == nullptr ? 1 : static_cast<uint64_t>(weights[offset + i]);
        signed_weights[i] =
            static_cast<int64_t>(KWiseHash::ApplySign(evals[i], w));
      }
      int64_t* const row_ptr =
          counters_.data() + static_cast<size_t>(row) * width_;
      if (prefetch) {
        // The buckets are already materialized, so the two-phase touch is
        // free of extra hashing: issue the target lines, then scatter.
        for (size_t i = 0; i < n; ++i) PrefetchForWrite(row_ptr + buckets[i]);
      }
      // Unsigned wrapping add: a counter near INT64_MAX wraps in two's
      // complement instead of hitting signed-overflow UB.
      for (size_t i = 0; i < n; ++i) {
        row_ptr[buckets[i]] = static_cast<int64_t>(
            static_cast<uint64_t>(row_ptr[buckets[i]]) +
            static_cast<uint64_t>(signed_weights[i]));
      }
    }
  }
}

int64_t CountSketch::Estimate(uint64_t item) const {
  std::vector<int64_t> row_estimates;
  row_estimates.reserve(depth_);
  if (layout_ == SketchLayout::kBlocked) {
    const Hash128 h = Murmur3_128_U64(item, seed_);
    const int64_t* const block =
        &counters_[(h.low % num_blocks_) * kCmBlockSlots];
    const uint32_t col_mask = cols_ - 1;
    for (uint32_t row = 0; row < depth_; ++row) {
      const int64_t counter =
          block[row * cols_ + CmBlockCol(h.high, row, col_mask)];
      row_estimates.push_back(CsBlockSign(h.high, row) * counter);
    }
  } else {
    for (uint32_t row = 0; row < depth_; ++row) {
      const int64_t counter =
          counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)];
      row_estimates.push_back(Sign(row, item) * counter);
    }
  }
  std::nth_element(row_estimates.begin(),
                   row_estimates.begin() + row_estimates.size() / 2,
                   row_estimates.end());
  return row_estimates[row_estimates.size() / 2];
}

double CountSketch::EstimateF2() const {
  // Each row's sum of squared counters through the dispatched kernel
  // (stripe-4 accumulation; identical association under every variant),
  // then the median across rows.
  const simd::SimdKernels& kernels = simd::Kernels();
  std::vector<double> row_f2;
  row_f2.reserve(depth_);
  if (layout_ == SketchLayout::kBlocked) {
    // Gather each logical row's scattered stripes into a contiguous scratch
    // first, so the kernel's stripe-4 association applies to the same flat
    // column order as the serialized form.
    std::vector<int64_t> row_scratch(width_);
    for (uint32_t row = 0; row < depth_; ++row) {
      for (uint64_t b = 0; b < num_blocks_; ++b) {
        const int64_t* const src =
            &counters_[b * kCmBlockSlots + row * cols_];
        std::copy(src, src + cols_, row_scratch.data() + b * cols_);
      }
      row_f2.push_back(kernels.i64_sum_squares(row_scratch.data(), width_));
    }
    return Median(std::move(row_f2));
  }
  for (uint32_t row = 0; row < depth_; ++row) {
    row_f2.push_back(kernels.i64_sum_squares(
        counters_.data() + static_cast<size_t>(row) * width_, width_));
  }
  return Median(std::move(row_f2));
}

gems::Estimate CountSketch::EstimateWithBounds(uint64_t item,
                                               double confidence) const {
  const double value = static_cast<double>(Estimate(item));
  // Per-row variance is F2/width; the median over rows concentrates, so we
  // report the single-row standard deviation as a (conservative) interval.
  const double std_error = std::sqrt(EstimateF2() / width_);
  return EstimateFromStdError(value, std_error, confidence);
}

Status CountSketch::Merge(const CountSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_ || layout_ != other.layout_) {
    return Status::InvalidArgument(
        "CountSketch merge requires identical shape, seed, and layout");
  }
  // Same layout means the storage arrays align element-for-element (blocked
  // padding slots are zero on both sides).
  simd::Kernels().i64_add(counters_.data(), other.counters_.data(),
                          counters_.size());
  return Status::Ok();
}

Status CountSketch::MergeFromView(const View<CountSketch>& view) {
  // Deserialize's validation order, then Merge's compatibility check, then
  // the counter sum streamed off the wrapped payload. The whole counter
  // array is claimed up front, so a truncated payload fails with
  // Deserialize's read error before any counter moves.
  ByteReader r = view.PayloadReader();
  uint32_t width, depth;
  uint64_t seed;
  if (Status sw = r.GetU32(&width); !sw.ok()) return sw;
  if (Status sd = r.GetU32(&depth); !sd.ok()) return sd;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (width == 0 || depth == 0 ||
      static_cast<uint64_t>(width) * depth > (uint64_t{1} << 32)) {
    return Status::Corruption("invalid CountSketch shape");
  }
  std::span<const uint8_t> raw;
  if (Status sv =
          r.GetRawView(static_cast<size_t>(width) * depth * 8, &raw);
      !sv.ok()) {
    return sv;
  }
  // Optional trailing layout byte: absent or 0 means flat, 1 means the
  // peer was blocked (wire counters are flat-permuted either way).
  SketchLayout wire_layout = SketchLayout::kFlat;
  if (!r.AtEnd()) {
    uint8_t layout_byte;
    if (Status sl = r.GetU8(&layout_byte); !sl.ok()) return sl;
    if (layout_byte > 1) {
      return Status::Corruption("invalid CountSketch layout byte");
    }
    wire_layout = static_cast<SketchLayout>(layout_byte);
  }
  if (width != width_ || depth != depth_ || seed != seed_ ||
      wire_layout != layout_) {
    return Status::InvalidArgument(
        "CountSketch merge requires identical shape, seed, and layout");
  }
  ByteReader counters(raw);
  if (layout_ == SketchLayout::kBlocked) {
    // The wire walks the logical flat matrix row-major; flat column
    // b*cols_+j of row r lives at slot b*8 + r*cols_ + j here.
    const uint32_t col_shift = std::countr_zero(cols_);
    const uint32_t col_mask = cols_ - 1;
    for (uint32_t row = 0; row < depth_; ++row) {
      for (uint32_t col = 0; col < width_; ++col) {
        int64_t counter;
        if (Status sv = counters.GetI64(&counter); !sv.ok()) return sv;
        counters_[(static_cast<uint64_t>(col >> col_shift) * kCmBlockSlots) +
                  row * cols_ + (col & col_mask)] += counter;
      }
    }
    return Status::Ok();
  }
  for (int64_t& ours : counters_) {
    int64_t counter;
    if (Status sv = counters.GetI64(&counter); !sv.ok()) return sv;
    ours += counter;
  }
  return Status::Ok();
}

std::vector<uint8_t> CountSketch::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(kWireHeaderSize + 16 + counters_.size() * 8);
  ByteSink sink(&out);
  SerializeTo(sink);
  return out;
}

void CountSketch::SerializeTo(ByteSink& sink) const {
  EnvelopeBuilder env(sink, kTypeId);
  sink.PutU32(width_);
  sink.PutU32(depth_);
  sink.PutU64(seed_);
  if (layout_ == SketchLayout::kBlocked) {
    // Wire counters are always the logical flat matrix, row-major (see the
    // Count-Min twin for the permutation); one trailing byte records the
    // layout. Flat sketches write nothing extra, keeping their wire bytes
    // identical to every earlier release.
    const uint32_t col_shift = std::countr_zero(cols_);
    const uint32_t col_mask = cols_ - 1;
    for (uint32_t row = 0; row < depth_; ++row) {
      for (uint32_t col = 0; col < width_; ++col) {
        sink.PutI64(
            counters_[(static_cast<uint64_t>(col >> col_shift) *
                       kCmBlockSlots) +
                      row * cols_ + (col & col_mask)]);
      }
    }
    sink.PutU8(1);
    return;
  }
  for (int64_t counter : counters_) sink.PutI64(counter);
}

Result<CountSketch> CountSketch::Deserialize(
    std::span<const uint8_t> bytes) {
  Result<ByteReader> payload = OpenEnvelope(SketchTypeId::kCountSketch, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r = std::move(payload).value();
  uint32_t width, depth;
  uint64_t seed;
  if (Status sw = r.GetU32(&width); !sw.ok()) return sw;
  if (Status sd = r.GetU32(&depth); !sd.ok()) return sd;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (width == 0 || depth == 0 ||
      static_cast<uint64_t>(width) * depth > (uint64_t{1} << 32)) {
    return Status::Corruption("invalid CountSketch shape");
  }
  CountSketch sketch(width, depth, seed);
  for (int64_t& counter : sketch.counters_) {
    if (Status sv = r.GetI64(&counter); !sv.ok()) return sv;
  }
  // Optional trailing layout byte (see SerializeTo): absent or 0 is the
  // flat fast path above; 1 re-permutes the flat counters into a blocked
  // sketch.
  if (r.AtEnd()) return sketch;
  uint8_t layout_byte;
  if (Status sl = r.GetU8(&layout_byte); !sl.ok()) return sl;
  if (layout_byte == 0) return sketch;
  if (layout_byte != 1) {
    return Status::Corruption("invalid CountSketch layout byte");
  }
  if (depth > 8) {
    return Status::Corruption("CountSketch blocked depth exceeds block");
  }
  CountSketch blocked(width, depth, seed, SketchLayout::kBlocked);
  if (blocked.width_ != width) {
    return Status::Corruption("CountSketch blocked width not block-aligned");
  }
  const uint32_t col_shift = std::countr_zero(blocked.cols_);
  const uint32_t col_mask = blocked.cols_ - 1;
  for (uint32_t row = 0; row < depth; ++row) {
    for (uint32_t col = 0; col < width; ++col) {
      blocked.counters_[(static_cast<uint64_t>(col >> col_shift) *
                         kCmBlockSlots) +
                        row * blocked.cols_ + (col & col_mask)] =
          sketch.counters_[static_cast<size_t>(row) * width + col];
    }
  }
  return blocked;
}

}  // namespace gems
