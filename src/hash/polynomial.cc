#include "hash/polynomial.h"

#include <utility>

#include "common/check.h"

namespace gems {

KWiseHash::KWiseHash(int k, uint64_t seed) {
  GEMS_CHECK(k >= 1);
  Rng rng(seed);
  coefficients_.reserve(k);
  for (int i = 0; i < k; ++i) {
    coefficients_.push_back(rng.NextU64() % kPrime);
  }
  // Force the leading coefficient non-zero so the polynomial has full degree.
  if (k > 1 && coefficients_.back() == 0) coefficients_.back() = 1;
}

KWiseHash::KWiseHash(std::vector<uint64_t> coefficients)
    : coefficients_(std::move(coefficients)) {
  GEMS_CHECK(!coefficients_.empty());
  for (uint64_t c : coefficients_) GEMS_CHECK(c < kPrime);
}

uint64_t KWiseHash::Eval(uint64_t key) const {
  return EvalReduced(ReduceKey(key));
}

double KWiseHash::EvalUnit(uint64_t key) const {
  return static_cast<double>(Eval(key)) / static_cast<double>(kPrime);
}

}  // namespace gems
