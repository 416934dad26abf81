#include "cardinality/linear_counting.h"

#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "core/wire.h"
#include "hash/hash.h"

namespace gems {

LinearCounting::LinearCounting(uint64_t num_bits, uint64_t seed)
    : num_bits_((num_bits + 63) / 64 * 64), seed_(seed) {
  GEMS_CHECK(num_bits > 0);
  bitmap_.assign(num_bits_ / 64, 0);
}

void LinearCounting::Update(uint64_t item) {
  const uint64_t bit = Hash64(item, seed_) % num_bits_;
  bitmap_[bit / 64] |= uint64_t{1} << (bit % 64);
}

uint64_t LinearCounting::NumBitsSet() const {
  uint64_t set = 0;
  for (uint64_t word : bitmap_) set += PopCount64(word);
  return set;
}

double LinearCounting::Estimate() const {
  const uint64_t zeros = num_bits_ - NumBitsSet();
  const double m = static_cast<double>(num_bits_);
  if (zeros == 0) return m * std::log(m);  // Saturated.
  return -m * std::log(static_cast<double>(zeros) / m);
}

gems::Estimate LinearCounting::EstimateWithBounds(double confidence) const {
  const double m = static_cast<double>(num_bits_);
  const double n = Estimate();
  const double t = n / m;  // Load factor.
  // Asymptotic variance of the MLE: m(e^t - t - 1).
  const double variance = std::max(0.0, m * (std::exp(t) - t - 1.0));
  return EstimateFromStdError(n, std::sqrt(variance), confidence);
}

Status LinearCounting::Merge(const LinearCounting& other) {
  if (num_bits_ != other.num_bits_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "LinearCounting merge requires equal size and seed");
  }
  for (size_t i = 0; i < bitmap_.size(); ++i) bitmap_[i] |= other.bitmap_[i];
  return Status::Ok();
}

void LinearCounting::PutPayload(ByteSink& sink) const {
  sink.PutU64(num_bits_);
  sink.PutU64(seed_);
  sink.PutU64s(bitmap_);
}

Result<LinearCounting> LinearCounting::GetPayload(ByteReader& r) {
  uint64_t num_bits, seed;
  if (Status sb = r.GetU64(&num_bits); !sb.ok()) return sb;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (num_bits == 0 || num_bits % 64 != 0 || num_bits > (uint64_t{1} << 40)) {
    return Status::Corruption("invalid LinearCounting size");
  }
  if (Status sw = r.CheckColumn(num_bits / 64, 8); !sw.ok()) return sw;
  LinearCounting lc(num_bits, seed);
  if (Status sw = r.GetU64s(lc.bitmap_); !sw.ok()) return sw;
  return lc;
}

}  // namespace gems
