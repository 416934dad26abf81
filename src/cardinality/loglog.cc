#include "cardinality/loglog.h"

#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "core/wire.h"
#include "hash/hash.h"

namespace gems {
namespace {

// Asymptotic alpha for the geometric-mean LogLog estimator:
// alpha = (Gamma(-1/m)(1-2^{1/m})/ln 2)^{-m} -> 0.39701 as m -> infinity.
// For the register counts we support (m >= 16) the asymptotic constant is
// accurate to well under the sketch's own standard error.
constexpr double kAlphaInfinity = 0.39701;

}  // namespace

LogLog::LogLog(int precision, uint64_t seed)
    : precision_(precision), seed_(seed) {
  GEMS_CHECK(precision >= 4 && precision <= 16);
  registers_.assign(uint64_t{1} << precision, 0);
}

void LogLog::Update(uint64_t item) {
  const uint64_t h = Hash64(item, seed_);
  const uint32_t index = static_cast<uint32_t>(h >> (64 - precision_));
  // rho = rank of the leftmost 1 in the remaining 64-p bits (1-based).
  const int width = 64 - precision_;
  const int rho = RankOfLeftmostOne(h, width);
  if (rho > registers_[index]) {
    registers_[index] = static_cast<uint8_t>(rho);
  }
}

double LogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  double sum = 0.0;
  for (uint8_t reg : registers_) sum += reg;
  return kAlphaInfinity * m * std::pow(2.0, sum / m);
}

gems::Estimate LogLog::EstimateWithBounds(double confidence) const {
  const double n = Estimate();
  const double std_error =
      1.30 / std::sqrt(static_cast<double>(registers_.size())) * n;
  return EstimateFromStdError(n, std_error, confidence);
}

Status LogLog::Merge(const LogLog& other) {
  if (precision_ != other.precision_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "LogLog merge requires equal precision and seed");
  }
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  return Status::Ok();
}

void LogLog::PutPayload(ByteSink& sink) const {
  sink.PutU8(static_cast<uint8_t>(precision_));
  sink.PutU64(seed_);
  sink.PutRaw(registers_.data(), registers_.size());
}

Result<LogLog> LogLog::GetPayload(ByteReader& r) {
  uint8_t precision;
  uint64_t seed;
  if (Status sp = r.GetU8(&precision); !sp.ok()) return sp;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (precision < 4 || precision > 16) {
    return Status::Corruption("invalid LogLog precision");
  }
  LogLog ll(precision, seed);
  if (Status sr = r.GetRaw(ll.registers_.data(), ll.registers_.size());
      !sr.ok()) {
    return sr;
  }
  return ll;
}

}  // namespace gems
