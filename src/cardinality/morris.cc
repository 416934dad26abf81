#include "cardinality/morris.h"

#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "core/wire.h"

namespace gems {

MorrisCounter::MorrisCounter(double a, uint64_t seed) : a_(a), rng_(seed) {
  GEMS_CHECK(a >= 1.0);
}

void MorrisCounter::Increment() {
  // Probability (1+1/a)^{-c} of bumping the register.
  const double p = std::pow(1.0 + 1.0 / a_, -static_cast<double>(register_));
  if (rng_.NextBernoulli(p)) ++register_;
}

void MorrisCounter::IncrementBy(uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) Increment();
}

double MorrisCounter::Estimate() const {
  return a_ * (std::pow(1.0 + 1.0 / a_, static_cast<double>(register_)) - 1.0);
}

gems::Estimate MorrisCounter::EstimateWithBounds(double confidence) const {
  const double n = Estimate();
  const double variance = std::max(0.0, n * (n - 1.0) / (2.0 * a_));
  return EstimateFromStdError(n, std::sqrt(variance), confidence);
}

int MorrisCounter::RegisterBits() const {
  return register_ == 0 ? 1 : FloorLog2(register_) + 1;
}

Status MorrisCounter::Merge(const MorrisCounter& other) {
  if (a_ != other.a_) {
    return Status::InvalidArgument("Morris merge requires equal a");
  }
  const double combined = Estimate() + other.Estimate();
  // Re-encode: c = log_{1+1/a}(1 + n/a), rounded probabilistically so the
  // estimator stays unbiased in expectation.
  const double exact_c = std::log1p(combined / a_) / std::log1p(1.0 / a_);
  const double floor_c = std::floor(exact_c);
  const double frac = exact_c - floor_c;
  register_ = static_cast<uint64_t>(floor_c) +
              (rng_.NextBernoulli(frac) ? 1 : 0);
  return Status::Ok();
}

void MorrisCounter::PutPayload(ByteSink& sink) const {
  sink.PutDouble(a_);
  sink.PutVarint(register_);
}

Result<MorrisCounter> MorrisCounter::GetPayload(ByteReader& r) {
  double a;
  uint64_t reg;
  if (Status sa = r.GetDouble(&a); !sa.ok()) return sa;
  if (Status sr = r.GetVarint(&reg); !sr.ok()) return sr;
  if (!(a >= 1.0)) return Status::Corruption("invalid Morris parameter a");
  MorrisCounter counter(a, /*seed=*/reg ^ 0x5EED);
  counter.register_ = reg;
  return counter;
}

MorrisEnsemble::MorrisEnsemble(int replicas, double a, uint64_t seed) {
  GEMS_CHECK(replicas >= 1);
  counters_.reserve(replicas);
  for (int i = 0; i < replicas; ++i) {
    counters_.emplace_back(a, Mix64(seed + i));
  }
}

void MorrisEnsemble::Increment() {
  for (MorrisCounter& c : counters_) c.Increment();
}

double MorrisEnsemble::Estimate() const {
  double sum = 0.0;
  for (const MorrisCounter& c : counters_) sum += c.Estimate();
  return sum / static_cast<double>(counters_.size());
}

}  // namespace gems
