#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>
#include <malloc.h>

#include "cardinality/flajolet_martin.h"
#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "cardinality/linear_counting.h"
#include "cardinality/loglog.h"
#include "cardinality/morris.h"
#include "common/numeric.h"
#include "core/summary.h"
#include "core/wire.h"
#include "workload/generators.h"

namespace gems {
namespace {

// Concept conformance.
static_assert(ItemSummary<HyperLogLog> && MergeableSummary<HyperLogLog>);
static_assert(ItemSummary<LogLog> && MergeableSummary<LogLog>);
static_assert(ItemSummary<FlajoletMartin> && MergeableSummary<FlajoletMartin>);
static_assert(ItemSummary<LinearCounting> && MergeableSummary<LinearCounting>);
static_assert(ItemSummary<HllPlusPlus> && MergeableSummary<HllPlusPlus>);
static_assert(ItemSummary<KmvSketch> && MergeableSummary<KmvSketch>);
static_assert(SerializableSummary<HyperLogLog>);
static_assert(SerializableSummary<KmvSketch>);
static_assert(SerializableSummary<MorrisCounter>);

// ---------------------------------------------------------------- Morris

TEST(MorrisTest, EmptyCountsZero) {
  MorrisCounter c(16, 1);
  EXPECT_DOUBLE_EQ(c.Estimate(), 0.0);
  EXPECT_EQ(c.RegisterBits(), 1);
}

TEST(MorrisTest, SmallCountsNearExact) {
  // With a = 256 the first ~hundred increments are nearly deterministic.
  MorrisCounter c(256, 2);
  for (int i = 0; i < 100; ++i) c.Increment();
  EXPECT_NEAR(c.Estimate(), 100.0, 25.0);
}

TEST(MorrisTest, LargeCountWithinRelativeError) {
  const uint64_t n = 200000;
  std::vector<double> errors;
  for (int trial = 0; trial < 20; ++trial) {
    MorrisCounter c(64, 100 + trial);
    c.IncrementBy(n);
    errors.push_back((c.Estimate() - n) / static_cast<double>(n));
  }
  // Mean relative error should be near zero (unbiased), RMS ~ 1/sqrt(2a).
  EXPECT_LT(std::abs(Mean(errors)), 0.08);
  EXPECT_LT(Rms(errors), 3.0 / std::sqrt(2.0 * 64.0));
}

TEST(MorrisTest, RegisterGrowsDoublyLogarithmically) {
  MorrisCounter c(1.0, 3);
  c.IncrementBy(1 << 20);
  // Register ~ log2(n) for a=1, so bits ~ log2 log2 n ~ 4.4.
  EXPECT_LE(c.RegisterBits(), 8);
}

TEST(MorrisTest, ConfidenceIntervalCoversTruthUsually) {
  const uint64_t n = 50000;
  int covered = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    MorrisCounter c(128, 500 + t);
    c.IncrementBy(n);
    if (c.EstimateWithBounds(0.95).Covers(static_cast<double>(n))) ++covered;
  }
  EXPECT_GE(covered, trials * 8 / 10);
}

TEST(MorrisTest, MergeApproximatelyAdds) {
  std::vector<double> errors;
  for (int t = 0; t < 20; ++t) {
    MorrisCounter a(128, 10 + t), b(128, 900 + t);
    a.IncrementBy(30000);
    b.IncrementBy(50000);
    ASSERT_TRUE(a.Merge(b).ok());
    errors.push_back((a.Estimate() - 80000.0) / 80000.0);
  }
  EXPECT_LT(std::abs(Mean(errors)), 0.05);
}

TEST(MorrisTest, MergeRejectsMismatchedA) {
  MorrisCounter a(16, 0), b(64, 0);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(MorrisTest, SerializeRoundTrip) {
  MorrisCounter c(32, 5);
  c.IncrementBy(10000);
  const auto bytes = c.Serialize();
  auto r = MorrisCounter::Deserialize(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), c.Estimate());
}

TEST(MorrisTest, DeserializeGarbageFails) {
  EXPECT_FALSE(MorrisCounter::Deserialize(std::vector<uint8_t>{1, 2, 3}).ok());
}

TEST(MorrisEnsembleTest, AveragingReducesError) {
  const uint64_t n = 100000;
  std::vector<double> single_errors, ensemble_errors;
  for (int t = 0; t < 15; ++t) {
    MorrisCounter single(8, t);
    MorrisEnsemble ensemble(16, 8, 1000 + t);
    for (uint64_t i = 0; i < n; ++i) {
      single.Increment();
      ensemble.Increment();
    }
    single_errors.push_back(RelativeError(single.Estimate(), n));
    ensemble_errors.push_back(RelativeError(ensemble.Estimate(), n));
  }
  EXPECT_LT(Rms(ensemble_errors), Rms(single_errors));
}

// -------------------------------------------------------- Linear counting

TEST(LinearCountingTest, EmptyIsZero) {
  LinearCounting lc(1024, 0);
  EXPECT_DOUBLE_EQ(lc.Estimate(), 0.0);
}

TEST(LinearCountingTest, AccurateAtLowLoad) {
  LinearCounting lc(1 << 14, 1);
  const auto items = DistinctItems(2000, 7);
  for (uint64_t item : items) lc.Update(item);
  EXPECT_NEAR(lc.Estimate(), 2000.0, 100.0);
}

TEST(LinearCountingTest, DuplicatesDontInflate) {
  LinearCounting lc(4096, 2);
  for (int rep = 0; rep < 100; ++rep) {
    for (uint64_t i = 0; i < 100; ++i) lc.Update(i);
  }
  EXPECT_NEAR(lc.Estimate(), 100.0, 15.0);
}

TEST(LinearCountingTest, SaturationReturnsFiniteUpperBound) {
  LinearCounting lc(64, 3);
  for (uint64_t i = 0; i < 10000; ++i) lc.Update(i);
  EXPECT_GT(lc.Estimate(), 64.0);
  EXPECT_TRUE(std::isfinite(lc.Estimate()));
}

TEST(LinearCountingTest, MergeEqualsUnion) {
  LinearCounting a(8192, 4), b(8192, 4), whole(8192, 4);
  const auto items = DistinctItems(3000, 9);
  for (size_t i = 0; i < items.size(); ++i) {
    whole.Update(items[i]);
    (i % 2 == 0 ? a : b).Update(items[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

TEST(LinearCountingTest, MergeRejectsMismatch) {
  LinearCounting a(1024, 0), b(2048, 0), c(1024, 1);
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.Merge(c).ok());
}

TEST(LinearCountingTest, SerializeRoundTrip) {
  LinearCounting lc(2048, 5);
  for (uint64_t i = 0; i < 500; ++i) lc.Update(i);
  auto r = LinearCounting::Deserialize(lc.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), lc.Estimate());
  EXPECT_EQ(r.value().NumBitsSet(), lc.NumBitsSet());
}

// --------------------------------------------------------- FlajoletMartin

TEST(FlajoletMartinTest, EstimateWithinExpectedError) {
  const uint64_t n = 100000;
  std::vector<double> errors;
  for (int t = 0; t < 15; ++t) {
    FlajoletMartin fm(256, t);
    for (uint64_t item : DistinctItems(n, 50 + t)) fm.Update(item);
    errors.push_back((fm.Estimate() - n) / static_cast<double>(n));
  }
  // RMSE should be in the ballpark of 0.78/sqrt(256) ~ 0.049.
  EXPECT_LT(Rms(errors), 3 * 0.78 / std::sqrt(256.0));
  EXPECT_LT(std::abs(Mean(errors)), 0.15);
}

TEST(FlajoletMartinTest, DuplicatesAreIdempotent) {
  FlajoletMartin fm(64, 1);
  for (uint64_t i = 0; i < 1000; ++i) fm.Update(i);
  const double once = fm.Estimate();
  for (int rep = 0; rep < 10; ++rep) {
    for (uint64_t i = 0; i < 1000; ++i) fm.Update(i);
  }
  EXPECT_DOUBLE_EQ(fm.Estimate(), once);
}

TEST(FlajoletMartinTest, MergeEqualsUnion) {
  FlajoletMartin a(128, 2), b(128, 2), whole(128, 2);
  const auto items = DistinctItems(20000, 3);
  for (size_t i = 0; i < items.size(); ++i) {
    whole.Update(items[i]);
    (i % 2 == 0 ? a : b).Update(items[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

TEST(FlajoletMartinTest, RejectsNonPowerOfTwo) {
  EXPECT_DEATH(FlajoletMartin(100, 0), "");
}

TEST(FlajoletMartinTest, SerializeRoundTrip) {
  FlajoletMartin fm(64, 9);
  for (uint64_t item : DistinctItems(5000, 4)) fm.Update(item);
  auto r = FlajoletMartin::Deserialize(fm.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), fm.Estimate());
}

// ------------------------------------------------------------------ LogLog

TEST(LogLogTest, EstimateWithinExpectedError) {
  const uint64_t n = 100000;
  std::vector<double> errors;
  for (int t = 0; t < 15; ++t) {
    LogLog ll(10, t);  // m = 1024, std err ~ 1.30/32 ~ 4%.
    for (uint64_t item : DistinctItems(n, 60 + t)) ll.Update(item);
    errors.push_back((ll.Estimate() - n) / static_cast<double>(n));
  }
  EXPECT_LT(Rms(errors), 3 * 1.30 / std::sqrt(1024.0));
  EXPECT_LT(std::abs(Mean(errors)), 0.05);
}

TEST(LogLogTest, MergeEqualsUnion) {
  LogLog a(8, 1), b(8, 1), whole(8, 1);
  const auto items = DistinctItems(50000, 5);
  for (size_t i = 0; i < items.size(); ++i) {
    whole.Update(items[i]);
    (i % 3 == 0 ? a : b).Update(items[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

TEST(LogLogTest, SerializeRoundTrip) {
  LogLog ll(6, 2);
  for (uint64_t item : DistinctItems(10000, 6)) ll.Update(item);
  auto r = LogLog::Deserialize(ll.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), ll.Estimate());
}

// ------------------------------------------------------------- HyperLogLog

TEST(HyperLogLogTest, EmptyIsZero) {
  HyperLogLog hll(12, 0);
  EXPECT_DOUBLE_EQ(hll.Estimate(), 0.0);
}

TEST(HyperLogLogTest, EstimateWithinExpectedError) {
  const uint64_t n = 1000000;
  std::vector<double> errors;
  for (int t = 0; t < 15; ++t) {
    HyperLogLog hll(12, t);  // m = 4096, std err ~ 1.63%.
    for (uint64_t item : DistinctItems(n, 70 + t)) hll.Update(item);
    errors.push_back((hll.Estimate() - n) / static_cast<double>(n));
  }
  EXPECT_LT(Rms(errors), 3 * 1.04 / std::sqrt(4096.0));
  EXPECT_LT(std::abs(Mean(errors)), 0.02);
}

TEST(HyperLogLogTest, SmallRangeCorrectionKicksIn) {
  // At n << m the raw estimator is biased; the corrected one is accurate.
  HyperLogLog hll(14, 3);  // m = 16384.
  for (uint64_t item : DistinctItems(100, 8)) hll.Update(item);
  EXPECT_NEAR(hll.Estimate(), 100.0, 10.0);
}

TEST(HyperLogLogTest, BeatsLogLogAtEqualSpace) {
  const uint64_t n = 500000;
  std::vector<double> hll_errors, ll_errors;
  for (int t = 0; t < 12; ++t) {
    HyperLogLog hll(10, t);
    LogLog ll(10, t);
    for (uint64_t item : DistinctItems(n, 90 + t)) {
      hll.Update(item);
      ll.Update(item);
    }
    hll_errors.push_back(RelativeError(hll.Estimate(), n));
    ll_errors.push_back(RelativeError(ll.Estimate(), n));
  }
  EXPECT_LT(Rms(hll_errors), Rms(ll_errors));
}

TEST(HyperLogLogTest, MergeEqualsUnionExactly) {
  HyperLogLog a(11, 4), b(11, 4), whole(11, 4);
  const auto items = DistinctItems(300000, 11);
  for (size_t i = 0; i < items.size(); ++i) {
    whole.Update(items[i]);
    (i % 2 == 0 ? a : b).Update(items[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

TEST(HyperLogLogTest, MergeWithOverlapDoesNotDoubleCount) {
  HyperLogLog a(11, 4), b(11, 4);
  const auto items = DistinctItems(100000, 12);
  for (uint64_t item : items) {
    a.Update(item);
    b.Update(item);  // Identical contents.
  }
  const double before = a.Estimate();
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), before);
}

TEST(HyperLogLogTest, ConfidenceIntervalCoversTruthUsually) {
  const uint64_t n = 200000;
  int covered = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    HyperLogLog hll(10, 40 + t);
    for (uint64_t item : DistinctItems(n, 200 + t)) hll.Update(item);
    if (hll.EstimateWithBounds(0.95).Covers(static_cast<double>(n))) ++covered;
  }
  EXPECT_GE(covered, trials * 8 / 10);
}

TEST(HyperLogLogTest, MergeRejectsMismatch) {
  HyperLogLog a(10, 0), b(11, 0), c(10, 1);
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.Merge(c).ok());
}

TEST(HyperLogLogTest, SerializeRoundTrip) {
  HyperLogLog hll(10, 5);
  for (uint64_t item : DistinctItems(50000, 13)) hll.Update(item);
  auto r = HyperLogLog::Deserialize(hll.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), hll.Estimate());
}

TEST(HyperLogLogTest, DeserializeRejectsBadPrecision) {
  HyperLogLog hll(10, 5);
  auto bytes = hll.Serialize();
  // Rewrite the precision byte (first payload byte) and re-wrap so the
  // envelope itself is valid — this exercises the payload validation, not
  // the checksum.
  Result<EnvelopeView> view = ParseEnvelope(bytes);
  ASSERT_TRUE(view.ok());
  std::vector<uint8_t> payload(view.value().payload,
                               view.value().payload + view.value().payload_size);
  payload[0] = 50;
  auto corrupt = WrapEnvelope(SketchTypeId::kHyperLogLog, std::move(payload));
  EXPECT_FALSE(HyperLogLog::Deserialize(corrupt).ok());
}

TEST(HyperLogLogTest, DeserializeRejectsFlippedPayloadByte) {
  HyperLogLog hll(10, 5);
  auto bytes = hll.Serialize();
  bytes[kWireHeaderSize] ^= 0xFF;  // First payload byte; checksum catches it.
  EXPECT_EQ(HyperLogLog::Deserialize(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(HyperLogLogTest, AlphaConstants) {
  EXPECT_DOUBLE_EQ(HyperLogLog::Alpha(16), 0.673);
  EXPECT_DOUBLE_EQ(HyperLogLog::Alpha(32), 0.697);
  EXPECT_DOUBLE_EQ(HyperLogLog::Alpha(64), 0.709);
  EXPECT_NEAR(HyperLogLog::Alpha(4096), 0.7213 / (1 + 1.079 / 4096), 1e-12);
}

// ------------------------------------------------------------------ HLL++

TEST(HllPlusPlusTest, StartsSparse) {
  HllPlusPlus hpp(14, 0);
  EXPECT_TRUE(hpp.IsSparse());
}

TEST(HllPlusPlusTest, SparseModeIsNearExactAtSmallN) {
  HllPlusPlus hpp(14, 1);
  for (uint64_t item : DistinctItems(1000, 21)) hpp.Update(item);
  ASSERT_TRUE(hpp.IsSparse());
  EXPECT_NEAR(hpp.Estimate(), 1000.0, 20.0);
}

TEST(HllPlusPlusTest, SparseBeatsDenseAtSmallN) {
  // The headline HLL++ claim: sparse mode gives much better accuracy for
  // n << m than the plain dense estimator.
  std::vector<double> sparse_errors, dense_errors;
  for (int t = 0; t < 10; ++t) {
    HllPlusPlus sparse(11, t);
    HyperLogLog dense(11, t);
    for (uint64_t item : DistinctItems(300, 300 + t)) {
      sparse.Update(item);
      dense.Update(item);
    }
    sparse_errors.push_back(RelativeError(sparse.Estimate(), 300));
    dense_errors.push_back(RelativeError(dense.Estimate(), 300));
  }
  EXPECT_LE(Rms(sparse_errors), Rms(dense_errors));
}

TEST(HllPlusPlusTest, ConvertsToDenseAndStaysAccurate) {
  HllPlusPlus hpp(10, 2);  // Capacity 2^10/8 = 128 sparse entries.
  const uint64_t n = 100000;
  for (uint64_t item : DistinctItems(n, 22)) hpp.Update(item);
  EXPECT_FALSE(hpp.IsSparse());
  EXPECT_NEAR(hpp.Estimate(), static_cast<double>(n), 0.15 * n);
}

TEST(HllPlusPlusTest, ConversionPreservesDenseEquivalence) {
  // Densifying the sparse form must give exactly the registers a dense
  // sketch would have had.
  HllPlusPlus hpp(8, 3);
  HyperLogLog dense(8, 3);
  for (uint64_t item : DistinctItems(200, 23)) {
    hpp.Update(item);
    dense.Update(item);
  }
  hpp.ConvertToDense();
  EXPECT_DOUBLE_EQ(hpp.Estimate(), dense.Estimate());
}

// Going dense frees the sparse map, bucket array included: a converted
// sketch and every copy of it hold the registers and little else.
TEST(HllPlusPlusTest, DenseSketchAndItsCopiesHoldNoSparseBuckets) {
  for (int p : {10, 14}) {
    const size_t bound = (size_t{1} << p) + 64;
    HllPlusPlus grown(p, 8);
    grown.UpdateBatch(DistinctItems(size_t{1} << p, 29));
    ASSERT_FALSE(grown.IsSparse());
    HllPlusPlus forced(p, 8);
    for (uint64_t item : DistinctItems((size_t{1} << p) / 16, 30)) {
      forced.Update(item);
    }
    ASSERT_TRUE(forced.IsSparse());
    EXPECT_GT(forced.MemoryBytes(), (size_t{1} << p) / 16);
    forced.ConvertToDense();
    for (const HllPlusPlus* sketch : {&grown, &forced}) {
      EXPECT_LE(sketch->MemoryBytes(), bound) << "p=" << p;
      const HllPlusPlus copy = *sketch;
      EXPECT_LE(copy.MemoryBytes(), bound) << "p=" << p;
      HllPlusPlus assigned(p, 8);
      assigned = *sketch;
      EXPECT_LE(assigned.MemoryBytes(), bound) << "p=" << p;
      EXPECT_EQ(copy.Serialize(), sketch->Serialize());
    }
  }
}

TEST(HllPlusPlusTest, SparseSketchAndItsCopyHoldNoDenseRegisters) {
  // The 2^p dense registers are allocated only on conversion, so a sparse
  // sketch and its copy hold about MemoryBytes() of heap, not 16 KB.
  constexpr int kP = 14;
  constexpr size_t kSketches = 64;
  std::vector<HllPlusPlus> sketches;
  sketches.reserve(2 * kSketches);
  const size_t before = mallinfo2().uordblks;
  for (size_t i = 0; i < kSketches; ++i) {
    HllPlusPlus& sparse = sketches.emplace_back(kP, 9);
    sparse.Update(i);
    sketches.push_back(sparse);
  }
  const size_t per_sketch = (mallinfo2().uordblks - before) / sketches.size();
  for (const HllPlusPlus& sketch : sketches) ASSERT_TRUE(sketch.IsSparse());
  const size_t reported = sketches.front().MemoryBytes();
  EXPECT_LE(per_sketch, reported + 128) << "reported " << reported;
  EXPECT_LT(per_sketch, size_t{1} << kP) << "reported " << reported;
  // Converting allocates the registers; the estimate is unchanged.
  HllPlusPlus dense = sketches.front();
  const double sparse_estimate = dense.Estimate();
  dense.ConvertToDense();
  EXPECT_GE(dense.MemoryBytes(), size_t{1} << kP);
  EXPECT_NEAR(dense.Estimate(), sparse_estimate, 0.01);
}

TEST(HllPlusPlusTest, MergeSparseSparse) {
  HllPlusPlus a(12, 4), b(12, 4);
  const auto items = DistinctItems(400, 24);
  for (size_t i = 0; i < items.size(); ++i) {
    (i % 2 == 0 ? a : b).Update(items[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_TRUE(a.IsSparse());
  EXPECT_NEAR(a.Estimate(), 400.0, 15.0);
}

TEST(HllPlusPlusTest, MergeMixedModes) {
  HllPlusPlus sparse(10, 5), dense(10, 5);
  const auto small = DistinctItems(100, 25);
  const auto big = DistinctItems(50000, 26);
  for (uint64_t item : small) sparse.Update(item);
  for (uint64_t item : big) dense.Update(item);
  ASSERT_FALSE(dense.IsSparse());
  ASSERT_TRUE(sparse.IsSparse());
  ASSERT_TRUE(dense.Merge(sparse).ok());
  EXPECT_NEAR(dense.Estimate(), 50100.0, 0.15 * 50100.0);
  // And the other direction: sparse absorbing dense converts itself.
  HllPlusPlus sparse2(10, 5);
  for (uint64_t item : small) sparse2.Update(item);
  HllPlusPlus dense2(10, 5);
  for (uint64_t item : big) dense2.Update(item);
  ASSERT_TRUE(sparse2.Merge(dense2).ok());
  EXPECT_FALSE(sparse2.IsSparse());
  EXPECT_NEAR(sparse2.Estimate(), 50100.0, 0.15 * 50100.0);
}

TEST(HllPlusPlusTest, SerializeRoundTripSparse) {
  HllPlusPlus hpp(12, 6);
  for (uint64_t item : DistinctItems(300, 27)) hpp.Update(item);
  ASSERT_TRUE(hpp.IsSparse());
  auto r = HllPlusPlus::Deserialize(hpp.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().IsSparse());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), hpp.Estimate());
}

TEST(HllPlusPlusTest, SerializeRoundTripDense) {
  HllPlusPlus hpp(8, 7);
  for (uint64_t item : DistinctItems(20000, 28)) hpp.Update(item);
  ASSERT_FALSE(hpp.IsSparse());
  auto r = HllPlusPlus::Deserialize(hpp.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().IsSparse());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), hpp.Estimate());
}

// -------------------------------------------------------------------- KMV

TEST(KmvTest, ExactBelowK) {
  KmvSketch kmv(100, 0);
  for (uint64_t i = 0; i < 50; ++i) kmv.Update(i);
  EXPECT_DOUBLE_EQ(kmv.Estimate(), 50.0);
  EXPECT_DOUBLE_EQ(kmv.Theta(), 1.0);
}

TEST(KmvTest, EstimateWithinExpectedError) {
  const uint64_t n = 200000;
  std::vector<double> errors;
  for (int t = 0; t < 15; ++t) {
    KmvSketch kmv(1024, t);
    for (uint64_t item : DistinctItems(n, 400 + t)) kmv.Update(item);
    errors.push_back((kmv.Estimate() - n) / static_cast<double>(n));
  }
  EXPECT_LT(Rms(errors), 3.0 / std::sqrt(1022.0));
  EXPECT_LT(std::abs(Mean(errors)), 0.03);
}

TEST(KmvTest, DuplicatesAreIdempotent) {
  KmvSketch kmv(64, 1);
  for (uint64_t i = 0; i < 1000; ++i) kmv.Update(i);
  const double once = kmv.Estimate();
  for (int rep = 0; rep < 5; ++rep) {
    for (uint64_t i = 0; i < 1000; ++i) kmv.Update(i);
  }
  EXPECT_DOUBLE_EQ(kmv.Estimate(), once);
  // And the estimate is within ~3 standard errors (n/sqrt(k-2)) of truth.
  EXPECT_NEAR(kmv.Estimate(), 1000.0, 3 * 1000.0 / std::sqrt(62.0));
}

TEST(KmvTest, MergeEstimatesUnion) {
  KmvSketch a(512, 2), b(512, 2);
  // 30k in a, 30k in b, 10k shared -> union 50k.
  const auto shared = DistinctItems(10000, 31);
  const auto only_a = DistinctItems(20000, 32);
  const auto only_b = DistinctItems(20000, 33);
  for (uint64_t item : shared) {
    a.Update(item);
    b.Update(item);
  }
  for (uint64_t item : only_a) a.Update(item);
  for (uint64_t item : only_b) b.Update(item);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_NEAR(a.Estimate(), 50000.0, 0.2 * 50000.0);
}

TEST(KmvTest, SetAlgebraMatchesGroundTruth) {
  KmvSketch a(2048, 3), b(2048, 3);
  const auto shared = DistinctItems(20000, 41);
  const auto only_a = DistinctItems(30000, 42);
  const auto only_b = DistinctItems(10000, 43);
  for (uint64_t item : shared) {
    a.Update(item);
    b.Update(item);
  }
  for (uint64_t item : only_a) a.Update(item);
  for (uint64_t item : only_b) b.Update(item);

  const double union_est = KmvSketch::Union(a, b).Estimate();
  const double inter_est = KmvSketch::Intersect(a, b).Estimate();
  const double diff_est = KmvSketch::Difference(a, b).Estimate();
  EXPECT_NEAR(union_est, 60000.0, 6000.0);
  EXPECT_NEAR(inter_est, 20000.0, 4000.0);
  EXPECT_NEAR(diff_est, 30000.0, 5000.0);
  // Inclusion-exclusion approximately holds.
  EXPECT_NEAR(union_est, a.Estimate() + b.Estimate() - inter_est,
              0.15 * union_est);
}

TEST(KmvTest, IntersectionOfDisjointSetsIsSmall) {
  KmvSketch a(512, 4), b(512, 4);
  for (uint64_t item : DistinctItems(50000, 44)) a.Update(item);
  for (uint64_t item : DistinctItems(50000, 45)) b.Update(item);
  EXPECT_LT(KmvSketch::Intersect(a, b).Estimate(), 2000.0);
}

TEST(KmvTest, ThetaResultConfidenceInterval) {
  KmvSketch kmv(1024, 5);
  const uint64_t n = 100000;
  for (uint64_t item : DistinctItems(n, 46)) kmv.Update(item);
  Estimate e = kmv.ToTheta().EstimateWithBounds(0.95);
  EXPECT_GT(e.upper, e.lower);
  EXPECT_TRUE(e.Covers(static_cast<double>(n)) ||
              RelativeError(e.value, static_cast<double>(n)) < 0.15);
}

TEST(KmvTest, MergeRejectsSeedMismatch) {
  KmvSketch a(64, 1), b(64, 2);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(KmvTest, SerializeRoundTrip) {
  KmvSketch kmv(256, 6);
  for (uint64_t item : DistinctItems(10000, 47)) kmv.Update(item);
  auto r = KmvSketch::Deserialize(kmv.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().Estimate(), kmv.Estimate());
  EXPECT_EQ(r.value().NumRetained(), kmv.NumRetained());
}

// ---------------------------------------------- Cross-sketch property sweep

struct AccuracyCase {
  const char* name;
  int log2_space;       // Sketch size knob.
  double expected_rmse; // Theoretical standard error at that size.
};

class CardinalityAccuracySweep
    : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(CardinalityAccuracySweep, RmseTracksTheory) {
  const AccuracyCase c = GetParam();
  const uint64_t n = 200000;
  std::vector<double> errors;
  for (int t = 0; t < 10; ++t) {
    double estimate = 0;
    const auto items = DistinctItems(n, 1000 + t);
    if (std::string(c.name) == "hll") {
      HyperLogLog s(c.log2_space, t);
      for (uint64_t item : items) s.Update(item);
      estimate = s.Estimate();
    } else if (std::string(c.name) == "loglog") {
      LogLog s(c.log2_space, t);
      for (uint64_t item : items) s.Update(item);
      estimate = s.Estimate();
    } else {
      KmvSketch s(1u << c.log2_space, t);
      for (uint64_t item : items) s.Update(item);
      estimate = s.Estimate();
    }
    errors.push_back((estimate - n) / static_cast<double>(n));
  }
  // RMSE within 3x of theory (10 trials is noisy) and bias small.
  EXPECT_LT(Rms(errors), 3 * c.expected_rmse) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CardinalityAccuracySweep,
    ::testing::Values(AccuracyCase{"hll", 8, 1.04 / 16},
                      AccuracyCase{"hll", 10, 1.04 / 32},
                      AccuracyCase{"hll", 12, 1.04 / 64},
                      AccuracyCase{"loglog", 8, 1.30 / 16},
                      AccuracyCase{"loglog", 10, 1.30 / 32},
                      AccuracyCase{"kmv", 8, 1.0 / 16},
                      AccuracyCase{"kmv", 10, 1.0 / 32}));

}  // namespace
}  // namespace gems
