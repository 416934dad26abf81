#include "cardinality/flajolet_martin.h"

#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "core/wire.h"
#include "hash/hash.h"

namespace gems {
namespace {

// Flajolet-Martin's magic constant phi (correction factor).
constexpr double kPhi = 0.77351;

// Position (0-based) of the lowest zero bit of `word`.
inline int LowestZeroBit(uint64_t word) {
  return CountTrailingZeros64(~word);
}

}  // namespace

FlajoletMartin::FlajoletMartin(uint32_t num_bitmaps, uint64_t seed)
    : num_bitmaps_(num_bitmaps), seed_(seed) {
  GEMS_CHECK(num_bitmaps >= 1);
  GEMS_CHECK(IsPowerOfTwo(num_bitmaps));
  bitmaps_.assign(num_bitmaps, 0);
}

void FlajoletMartin::Update(uint64_t item) {
  const uint64_t h = Hash64(item, seed_);
  const uint32_t bitmap = static_cast<uint32_t>(h & (num_bitmaps_ - 1));
  // Remaining bits choose a geometric position: position = number of
  // trailing zeros of the high bits.
  const uint64_t rest = h >> CeilLog2(num_bitmaps_ == 1 ? 2 : num_bitmaps_);
  const int position = rest == 0 ? 63 : CountTrailingZeros64(rest);
  bitmaps_[bitmap] |= uint64_t{1} << (position < 64 ? position : 63);
}

double FlajoletMartin::Estimate() const {
  // Mean position of the lowest unset bit across bitmaps.
  double sum = 0.0;
  for (uint64_t word : bitmaps_) sum += LowestZeroBit(word);
  const double mean = sum / static_cast<double>(num_bitmaps_);
  return static_cast<double>(num_bitmaps_) / kPhi * std::pow(2.0, mean);
}

gems::Estimate FlajoletMartin::EstimateWithBounds(double confidence) const {
  const double n = Estimate();
  const double std_error = 0.78 / std::sqrt(num_bitmaps_) * n;
  return EstimateFromStdError(n, std_error, confidence);
}

Status FlajoletMartin::Merge(const FlajoletMartin& other) {
  if (num_bitmaps_ != other.num_bitmaps_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "FlajoletMartin merge requires equal shape and seed");
  }
  for (size_t i = 0; i < bitmaps_.size(); ++i) bitmaps_[i] |= other.bitmaps_[i];
  return Status::Ok();
}

void FlajoletMartin::PutPayload(ByteSink& sink) const {
  sink.PutU32(num_bitmaps_);
  sink.PutU64(seed_);
  sink.PutU64s(bitmaps_);
}

Result<FlajoletMartin> FlajoletMartin::GetPayload(ByteReader& r) {
  uint32_t num_bitmaps;
  uint64_t seed;
  if (Status sb = r.GetU32(&num_bitmaps); !sb.ok()) return sb;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (num_bitmaps == 0 || !IsPowerOfTwo(num_bitmaps) ||
      num_bitmaps > (1u << 24)) {
    return Status::Corruption("invalid FlajoletMartin shape");
  }
  if (Status sw = r.CheckColumn(num_bitmaps, 8); !sw.ok()) return sw;
  FlajoletMartin fm(num_bitmaps, seed);
  if (Status sw = r.GetU64s(fm.bitmaps_); !sw.ok()) return sw;
  return fm;
}

}  // namespace gems
