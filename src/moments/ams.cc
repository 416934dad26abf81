#include "moments/ams.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "common/numeric.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "simd/dispatch.h"

namespace gems {

AmsSketch::AmsSketch(uint32_t estimators_per_group, uint32_t num_groups,
                     uint64_t seed)
    : s1_(estimators_per_group), s2_(num_groups), seed_(seed) {
  GEMS_CHECK(estimators_per_group >= 1);
  GEMS_CHECK(num_groups >= 1);
  const size_t total = static_cast<size_t>(s1_) * s2_;
  sign_hashes_.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    sign_hashes_.emplace_back(4, DeriveSeed(seed, i));
  }
  counters_.assign(total, 0);
}

void AmsSketch::Update(uint64_t item, int64_t weight) {
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += sign_hashes_[i].EvalSign(item) * weight;
  }
}

void AmsSketch::UpdateBatch(std::span<const uint64_t> items) {
  UpdateBatchImpl(items, nullptr);
}

void AmsSketch::UpdateBatch(std::span<const uint64_t> items,
                            std::span<const int64_t> weights) {
  GEMS_CHECK(items.size() == weights.size());
  UpdateBatchImpl(items, weights.data());
}

void AmsSketch::UpdateBatchImpl(std::span<const uint64_t> items,
                                const int64_t* weights) {
  // Estimator-outer: per-item Update reduces the key into the field once
  // per estimator (inside Eval); hoisting ReduceKey out of the estimator
  // loop pays that division once per item, and each estimator's polynomial
  // runs over the chunk in one mod61_poly_eval call. Each estimator's
  // Rademacher sum accumulates in a register across the chunk before a
  // single counter add. The kernel is exact (Eval(key) ==
  // EvalReduced(ReduceKey(key)), word for word) and integer addition
  // commutes, so counters are byte-identical to per-item ingest.
  const simd::SimdKernels& kernels = simd::Kernels();
  std::array<uint64_t, 256> reduced;
  std::array<uint64_t, 256> evals;
  for (size_t offset = 0; offset < items.size(); offset += reduced.size()) {
    const size_t n = std::min(reduced.size(), items.size() - offset);
    for (size_t i = 0; i < n; ++i) {
      reduced[i] = KWiseHash::ReduceKey(items[offset + i]);
    }
    for (size_t e = 0; e < counters_.size(); ++e) {
      const KWiseHash& hash = sign_hashes_[e];
      kernels.mod61_poly_eval(reduced.data(), n, hash.coefficients(),
                              hash.k(), evals.data());
      uint64_t sum = 0;  // Wrapping, like the counters' two's complement.
      for (size_t i = 0; i < n; ++i) {
        const uint64_t w =
            weights == nullptr ? 1 : static_cast<uint64_t>(weights[offset + i]);
        sum += KWiseHash::ApplySign(evals[i], w);
      }
      counters_[e] += static_cast<int64_t>(sum);
    }
  }
}

double AmsSketch::EstimateF2() const {
  std::vector<double> group_means;
  group_means.reserve(s2_);
  for (uint32_t group = 0; group < s2_; ++group) {
    double mean = 0;
    for (uint32_t j = 0; j < s1_; ++j) {
      const double z =
          static_cast<double>(counters_[static_cast<size_t>(group) * s1_ + j]);
      mean += z * z;
    }
    group_means.push_back(mean / static_cast<double>(s1_));
  }
  return Median(std::move(group_means));
}

Estimate AmsSketch::F2Estimate(double confidence) const {
  const double f2 = EstimateF2();
  const double std_error = std::sqrt(2.0 / static_cast<double>(s1_)) * f2;
  return EstimateFromStdError(f2, std_error, confidence);
}

Result<double> AmsSketch::InnerProduct(const AmsSketch& other) const {
  if (s1_ != other.s1_ || s2_ != other.s2_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "AMS inner product requires identical shape and seed");
  }
  std::vector<double> group_means;
  group_means.reserve(s2_);
  for (uint32_t group = 0; group < s2_; ++group) {
    double mean = 0;
    for (uint32_t j = 0; j < s1_; ++j) {
      const size_t i = static_cast<size_t>(group) * s1_ + j;
      mean += static_cast<double>(counters_[i]) *
              static_cast<double>(other.counters_[i]);
    }
    group_means.push_back(mean / static_cast<double>(s1_));
  }
  return Median(std::move(group_means));
}

Status AmsSketch::Merge(const AmsSketch& other) {
  if (s1_ != other.s1_ || s2_ != other.s2_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "AMS merge requires identical shape and seed");
  }
  simd::Kernels().i64_add(counters_.data(), other.counters_.data(),
                          counters_.size());
  return Status::Ok();
}

void AmsSketch::PutPayload(ByteSink& sink) const {
  sink.PutU32(s1_);
  sink.PutU32(s2_);
  sink.PutU64(seed_);
  sink.PutI64s(counters_);
}

Result<AmsSketch> AmsSketch::GetPayload(ByteReader& r) {
  uint32_t s1, s2;
  uint64_t seed;
  if (Status sa = r.GetU32(&s1); !sa.ok()) return sa;
  if (Status sb = r.GetU32(&s2); !sb.ok()) return sb;
  if (Status sc = r.GetU64(&seed); !sc.ok()) return sc;
  if (s1 == 0 || s2 == 0 ||
      static_cast<uint64_t>(s1) * s2 > (uint64_t{1} << 24)) {
    return Status::Corruption("invalid AMS shape");
  }
  if (Status sv = r.CheckColumn(static_cast<uint64_t>(s1) * s2, 8);
      !sv.ok()) {
    return sv;
  }
  AmsSketch sketch(s1, s2, seed);
  if (Status sv = r.GetI64s(sketch.counters_); !sv.ok()) return sv;
  return sketch;
}

}  // namespace gems
