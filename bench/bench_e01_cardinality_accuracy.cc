// E1: cardinality estimator accuracy vs space.
//
// Claim (paper section 2, distinct counting lineage): standard error of
// FM/PCSA ~ 0.78/sqrt(m), LogLog ~ 1.30/sqrt(m), HyperLogLog ~ 1.04/sqrt(m);
// KMV ~ 1/sqrt(k). HLL++'s sparse mode removes the small-cardinality bias
// (ablation below).

#include <cstdio>
#include <cmath>
#include <vector>

#include "cardinality/flajolet_martin.h"
#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "cardinality/linear_counting.h"
#include "cardinality/loglog.h"
#include "common/numeric.h"
#include "workload/generators.h"

namespace {

constexpr uint64_t kN = 200000;
constexpr int kTrials = 15;

template <typename MakeSketch>
double MeasureRmse(MakeSketch make, uint64_t n, int trials) {
  std::vector<double> errors;
  for (int t = 0; t < trials; ++t) {
    auto sketch = make(t);
    for (uint64_t item : gems::DistinctItems(n, 7000 + t)) {
      sketch.Update(item);
    }
    errors.push_back((sketch.Estimate() - static_cast<double>(n)) /
                     static_cast<double>(n));
  }
  return gems::Rms(errors);
}

}  // namespace

int main() {
  std::printf("E1: relative RMSE vs registers m (n = %lu distinct, %d "
              "trials)\n",
              (unsigned long)kN, kTrials);
  std::printf("theory: FM 0.78/sqrt(m)  LogLog 1.30/sqrt(m)  "
              "HLL 1.04/sqrt(m)  KMV 1/sqrt(k)\n\n");
  std::printf("%6s | %18s | %18s | %18s | %18s\n", "m", "FM meas/theory",
              "LogLog meas/theory", "HLL meas/theory", "KMV meas/theory");
  for (int p = 8; p <= 14; p += 2) {
    const uint32_t m = 1u << p;
    const double fm = MeasureRmse(
        [&](int t) { return gems::FlajoletMartin(m, t); }, kN, kTrials);
    const double ll = MeasureRmse(
        [&](int t) { return gems::LogLog(p, t); }, kN, kTrials);
    const double hll = MeasureRmse(
        [&](int t) { return gems::HyperLogLog(p, t); }, kN, kTrials);
    const double kmv = MeasureRmse(
        [&](int t) { return gems::KmvSketch(m, t); }, kN, kTrials);
    const double sqrt_m = std::sqrt(static_cast<double>(m));
    std::printf("%6u | %8.4f / %7.4f | %8.4f / %7.4f | %8.4f / %7.4f | "
                "%8.4f / %7.4f\n",
                m, fm, 0.78 / sqrt_m, ll, 1.30 / sqrt_m, hll, 1.04 / sqrt_m,
                kmv, 1.0 / sqrt_m);
  }

  std::printf("\nE1b (HLL++ ablation): small-cardinality accuracy, "
              "p = 12 (m = 4096), 15 trials\n");
  std::printf("%8s | %12s | %12s | %12s\n", "n", "HLL raw", "HLL corrected",
              "HLL++ sparse");
  for (uint64_t n : {100ULL, 500ULL, 2000ULL, 10000ULL, 40000ULL}) {
    std::vector<double> raw_err, corrected_err, sparse_err;
    for (int t = 0; t < kTrials; ++t) {
      gems::HyperLogLog dense(12, t);
      gems::HllPlusPlus plus(12, t);
      for (uint64_t item : gems::DistinctItems(n, 9000 + t)) {
        dense.Update(item);
        plus.Update(item);
      }
      const double dn = static_cast<double>(n);
      raw_err.push_back((dense.Raw().count - dn) / dn);
      corrected_err.push_back((dense.Estimate() - dn) / dn);
      sparse_err.push_back((plus.Estimate() - dn) / dn);
    }
    std::printf("%8lu | %12.4f | %12.4f | %12.4f\n", (unsigned long)n,
                gems::Rms(raw_err), gems::Rms(corrected_err),
                gems::Rms(sparse_err));
  }

  std::printf("\nE1c: linear counting shines at low load (m = 2^16 bits)\n");
  std::printf("%8s | %12s | %12s\n", "n", "LinearCount", "HLL p=13 (1 KiB)");
  for (uint64_t n : {1000ULL, 5000ULL, 20000ULL}) {
    const double lc = MeasureRmse(
        [&](int t) { return gems::LinearCounting(1 << 16, t); }, n, kTrials);
    const double hll = MeasureRmse(
        [&](int t) { return gems::HyperLogLog(13, t); }, n, kTrials);
    std::printf("%8lu | %12.4f | %12.4f\n", (unsigned long)n, lc, hll);
  }
  return 0;
}
