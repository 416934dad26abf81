#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/io.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/dyadic_count_min.h"
#include "frequency/majority.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"
#include "workload/baselines.h"
#include "workload/generators.h"
#include "workload/metrics.h"

namespace gems {
namespace {

static_assert(WeightedItemSummary<CountMinSketch>);
static_assert(MergeableSummary<CountMinSketch>);
static_assert(WeightedItemSummary<CountSketch>);
static_assert(MergeableSummary<MisraGries>);
static_assert(MergeableSummary<SpaceSaving>);
static_assert(SerializableSummary<CountMinSketch>);
static_assert(SerializableSummary<MisraGries>);
static_assert(SerializableSummary<SpaceSaving>);

// --------------------------------------------------------------- CountMin

TEST(CountMinTest, NeverUnderestimates) {
  CountMinSketch cm(256, 4, 1);
  ExactFrequencies exact;
  ZipfGenerator zipf(10000, 1.1, 1);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t item = zipf.Next();
    cm.Update(item);
    exact.Update(item);
  }
  for (const auto& [item, count] : exact.TopK(200)) {
    EXPECT_GE(cm.Estimate(item), static_cast<uint64_t>(count));
  }
}

TEST(CountMinTest, ErrorWithinL1Bound) {
  // eps = e/width; estimate <= true + eps*N with prob 1-delta (~1-e^-4).
  const uint32_t width = 512;
  CountMinSketch cm(width, 4, 2);
  ExactFrequencies exact;
  ZipfGenerator zipf(100000, 1.0, 2);
  const int64_t n = 100000;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    cm.Update(item);
    exact.Update(item);
  }
  const double eps = std::exp(1.0) / width;
  int violations = 0;
  int checked = 0;
  for (const auto& [item, count] : exact.TopK(500)) {
    ++checked;
    if (cm.Estimate(item) >
        static_cast<uint64_t>(count) + static_cast<uint64_t>(eps * n)) {
      ++violations;
    }
  }
  EXPECT_LE(violations, checked / 20);
}

TEST(CountMinTest, ExactWhenNoCollisions) {
  CountMinSketch cm(4096, 4, 3);
  for (uint64_t item = 0; item < 10; ++item) cm.Update(item, item + 1);
  for (uint64_t item = 0; item < 10; ++item) {
    EXPECT_EQ(cm.Estimate(item), item + 1);
  }
  EXPECT_EQ(cm.Estimate(9999), 0u);
}

TEST(CountMinTest, WeightedUpdates) {
  CountMinSketch cm(1024, 4, 4);
  cm.Update(5, 1000);
  cm.Update(5, 234);
  EXPECT_GE(cm.Estimate(5), 1234u);
  EXPECT_EQ(cm.TotalWeight(), 1234);
}

TEST(CountMinTest, ForGuaranteeDimensions) {
  CountMinSketch cm = CountMinSketch::ForGuarantee(0.01, 0.01, 0);
  EXPECT_GE(cm.width(), 271u);  // e/0.01 ~ 271.8.
  EXPECT_GE(cm.depth(), 4u);    // ln(100) ~ 4.6.
}

TEST(CountMinTest, ConservativeUpdateNeverWorse) {
  CountMinSketch plain(128, 4, 5);
  CountMinSketch conservative(128, 4, 5, /*conservative_update=*/true);
  ExactFrequencies exact;
  ZipfGenerator zipf(5000, 1.1, 5);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t item = zipf.Next();
    plain.Update(item);
    conservative.Update(item);
    exact.Update(item);
  }
  double plain_err = 0, cons_err = 0;
  int underestimates = 0;
  for (const auto& [item, count] : exact.TopK(300)) {
    plain_err += static_cast<double>(plain.Estimate(item)) - count;
    cons_err +=
        static_cast<double>(conservative.Estimate(item)) - count;
    if (conservative.Estimate(item) < static_cast<uint64_t>(count)) {
      ++underestimates;
    }
  }
  EXPECT_LE(cons_err, plain_err);
  EXPECT_EQ(underestimates, 0);  // Conservative update stays one-sided.
}

TEST(CountMinTest, EstimateWithBoundsIntervalContainsTruth) {
  CountMinSketch cm(64, 4, 6);
  ExactFrequencies exact;
  ZipfGenerator zipf(1000, 1.0, 6);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t item = zipf.Next();
    cm.Update(item);
    exact.Update(item);
  }
  for (const auto& [item, count] : exact.TopK(50)) {
    Estimate e = cm.EstimateWithBounds(item);
    EXPECT_LE(e.lower, static_cast<double>(count));
    EXPECT_GE(e.upper + 1e-9, static_cast<double>(count));
  }
}

TEST(CountMinTest, InnerProductApproximatesDot) {
  CountMinSketch a(2048, 5, 7), b(2048, 5, 7);
  ExactFrequencies ea, eb;
  ZipfGenerator za(500, 1.0, 8), zb(500, 1.0, 9);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t x = za.Next(), y = zb.Next();
    a.Update(x);
    ea.Update(x);
    b.Update(y);
    eb.Update(y);
  }
  double truth = 0;
  for (const auto& [item, count] : ea.TopK(500)) {
    truth += static_cast<double>(count) * eb.Count(item);
  }
  auto estimate = a.InnerProduct(b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(estimate.value(), truth * 0.99);
  EXPECT_LE(estimate.value(), truth + 2.72 / 2048 * 20000.0 * 20000.0);
}

TEST(CountMinTest, CountMeanMinBeatsMinOnTail) {
  CountMinSketch cm(256, 5, 40);
  ExactFrequencies exact;
  ZipfGenerator zipf(50000, 1.1, 40);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t item = zipf.Next();
    cm.Update(item);
    exact.Update(item);
  }
  const auto top = exact.TopK(2000);
  double min_err = 0, cmm_err = 0;
  int counted = 0;
  for (size_t rank = 500; rank < top.size(); ++rank) {  // Tail items.
    const auto& [item, count] = top[rank];
    min_err +=
        std::abs(static_cast<double>(cm.Estimate(item)) - count);
    cmm_err += std::abs(
        static_cast<double>(cm.EstimateCountMeanMin(item)) - count);
    ++counted;
  }
  ASSERT_GT(counted, 0);
  EXPECT_LT(cmm_err, min_err);
}

TEST(CountMinTest, CountMeanMinStaysInEnvelope) {
  CountMinSketch cm(64, 4, 41);
  ZipfGenerator zipf(1000, 1.0, 41);
  for (int i = 0; i < 20000; ++i) cm.Update(zipf.Next());
  for (uint64_t item = 0; item < 200; ++item) {
    const int64_t cmm = cm.EstimateCountMeanMin(item);
    EXPECT_GE(cmm, 0);
    EXPECT_LE(cmm, static_cast<int64_t>(cm.Estimate(item)));
  }
}

TEST(CountMinTest, MergeEqualsSingleStream) {
  CountMinSketch a(256, 4, 10), b(256, 4, 10), whole(256, 4, 10);
  ZipfGenerator zipf(2000, 1.1, 10);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t item = zipf.Next();
    whole.Update(item);
    (i % 2 == 0 ? a : b).Update(item);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  for (uint64_t item = 0; item < 100; ++item) {
    EXPECT_EQ(a.Estimate(item), whole.Estimate(item));
  }
  EXPECT_EQ(a.TotalWeight(), whole.TotalWeight());
}

TEST(CountMinTest, SerializeRoundTrip) {
  CountMinSketch cm(128, 4, 11);
  ZipfGenerator zipf(1000, 1.2, 11);
  for (int i = 0; i < 5000; ++i) cm.Update(zipf.Next());
  auto r = CountMinSketch::Deserialize(cm.Serialize());
  ASSERT_TRUE(r.ok());
  for (uint64_t item = 0; item < 50; ++item) {
    EXPECT_EQ(r.value().Estimate(item), cm.Estimate(item));
  }
}

TEST(CountMinHeavyHittersTest, FindsTopItems) {
  CountMinHeavyHitters hh(1024, 4, 20, 12);
  ExactFrequencies exact;
  ZipfGenerator zipf(10000, 1.3, 12);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t item = zipf.Next();
    hh.Update(item);
    exact.Update(item);
  }
  std::vector<uint64_t> truth;
  for (const auto& [item, count] : exact.TopK(10)) truth.push_back(item);
  std::vector<uint64_t> retrieved;
  for (const auto& [item, count] : hh.TopK()) retrieved.push_back(item);
  RetrievalQuality q = CompareSets(retrieved, truth);
  EXPECT_GE(q.recall, 0.9);
}

// ---------------------------------------------------- blocked layout (CM)

TEST(CountMinBlockedTest, NeverUnderestimatesAndBoundHolds) {
  const uint32_t width = 512;
  CountMinSketch cm(width, 4, 2, /*conservative_update=*/false,
                    SketchLayout::kBlocked);
  ASSERT_EQ(cm.layout(), SketchLayout::kBlocked);
  ASSERT_EQ(cm.width() % cm.block_cols(), 0u);
  ExactFrequencies exact;
  ZipfGenerator zipf(100000, 1.0, 2);
  const int64_t n = 100000;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    cm.Update(item);
    exact.Update(item);
  }
  const double eps = std::exp(1.0) / width;
  int violations = 0;
  int checked = 0;
  for (const auto& [item, count] : exact.TopK(500)) {
    ++checked;
    EXPECT_GE(cm.Estimate(item), static_cast<uint64_t>(count));
    if (cm.Estimate(item) >
        static_cast<uint64_t>(count) + static_cast<uint64_t>(eps * n)) {
      ++violations;
    }
  }
  // The blocked rows share one 64-bit hash draw, so they are not
  // independent; the per-row Markov bound still holds but the failure
  // probability no longer compounds across rows — allow a looser tail
  // than the flat test's checked/20.
  EXPECT_LE(violations, checked / 10);
}

TEST(CountMinBlockedTest, BatchMatchesPerItemBitExactly) {
  CountMinSketch per_item(1024, 4, 7, false, SketchLayout::kBlocked);
  CountMinSketch batched(1024, 4, 7, false, SketchLayout::kBlocked);
  const std::vector<uint64_t> items =
      ZipfGenerator(5000, 1.1, 7).Take(20000);
  for (uint64_t item : items) per_item.Update(item);
  batched.UpdateBatch(items);
  EXPECT_EQ(per_item.counters(), batched.counters());

  CountMinSketch weighted_per(1024, 4, 7, false, SketchLayout::kBlocked);
  CountMinSketch weighted_bat(1024, 4, 7, false, SketchLayout::kBlocked);
  std::vector<int64_t> weights(items.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<int64_t>(i % 5) + 1;
  }
  for (size_t i = 0; i < items.size(); ++i) {
    weighted_per.Update(items[i], weights[i]);
  }
  weighted_bat.UpdateBatch(items, weights);
  EXPECT_EQ(weighted_per.counters(), weighted_bat.counters());
}

TEST(CountMinBlockedTest, SerializeRoundTripThroughFlatWire) {
  CountMinSketch cm(128, 4, 11, false, SketchLayout::kBlocked);
  ZipfGenerator zipf(1000, 1.2, 11);
  for (int i = 0; i < 5000; ++i) cm.Update(zipf.Next());
  const std::vector<uint8_t> bytes = cm.Serialize();
  auto r = CountMinSketch::Deserialize(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().layout(), SketchLayout::kBlocked);
  for (uint64_t item = 0; item < 200; ++item) {
    EXPECT_EQ(r.value().Estimate(item), cm.Estimate(item));
  }
  // The wire bytes are canonical: restoring and re-serializing reproduces
  // them exactly (the counters crossed the flat permutation twice).
  EXPECT_EQ(r.value().Serialize(), bytes);
}

TEST(CountMinBlockedTest, MergeEqualsSingleStream) {
  CountMinSketch a(256, 4, 10, false, SketchLayout::kBlocked);
  CountMinSketch b(256, 4, 10, false, SketchLayout::kBlocked);
  CountMinSketch whole(256, 4, 10, false, SketchLayout::kBlocked);
  ZipfGenerator zipf(2000, 1.1, 10);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t item = zipf.Next();
    whole.Update(item);
    (i % 2 == 0 ? a : b).Update(item);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  for (uint64_t item = 0; item < 100; ++item) {
    EXPECT_EQ(a.Estimate(item), whole.Estimate(item));
  }
  EXPECT_EQ(a.counters(), whole.counters());
}

TEST(CountMinBlockedTest, MergeFromViewMatchesMerge) {
  CountMinSketch acc(256, 4, 21, false, SketchLayout::kBlocked);
  CountMinSketch peer(256, 4, 21, false, SketchLayout::kBlocked);
  ZipfGenerator zipf(3000, 1.1, 21);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t item = zipf.Next();
    (i % 2 == 0 ? acc : peer).Update(item);
  }
  CountMinSketch by_merge = acc;
  const std::vector<uint8_t> bytes = peer.Serialize();
  Result<View<CountMinSketch>> view = View<CountMinSketch>::Wrap(bytes);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(MergeFromView(acc, view.value()).ok());
  ASSERT_TRUE(by_merge.Merge(peer).ok());
  EXPECT_EQ(acc.counters(), by_merge.counters());
}

TEST(CountMinBlockedTest, MergeRejectsLayoutMismatch) {
  CountMinSketch flat(256, 4, 9);
  CountMinSketch blocked(256, 4, 9, false, SketchLayout::kBlocked);
  ASSERT_EQ(flat.width(), blocked.width());  // Same shape, same seed.
  EXPECT_EQ(flat.Merge(blocked).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(blocked.Merge(flat).code(), StatusCode::kInvalidArgument);
  // And through the wire: a blocked envelope cannot land in a flat
  // accumulator.
  const std::vector<uint8_t> bytes = blocked.Serialize();
  Result<View<CountMinSketch>> view = View<CountMinSketch>::Wrap(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(MergeFromView(flat, view.value()).code(),
            StatusCode::kInvalidArgument);
}

TEST(CountMinBlockedTest, ConservativeUpdateNeverWorse) {
  CountMinSketch plain(128, 4, 5, false, SketchLayout::kBlocked);
  CountMinSketch conservative(128, 4, 5, /*conservative_update=*/true,
                              SketchLayout::kBlocked);
  ExactFrequencies exact;
  ZipfGenerator zipf(5000, 1.1, 5);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t item = zipf.Next();
    plain.Update(item);
    conservative.Update(item);
    exact.Update(item);
  }
  double plain_err = 0, cons_err = 0;
  int underestimates = 0;
  for (const auto& [item, count] : exact.TopK(300)) {
    plain_err += static_cast<double>(plain.Estimate(item)) - count;
    cons_err += static_cast<double>(conservative.Estimate(item)) - count;
    if (conservative.Estimate(item) < static_cast<uint64_t>(count)) {
      ++underestimates;
    }
  }
  EXPECT_LE(cons_err, plain_err);
  EXPECT_EQ(underestimates, 0);
}

// --------------------------------------------------- blocked layout (CS)

TEST(CountSketchBlockedTest, AccurateOnSkewedData) {
  CountSketch cs(1024, 5, 3, SketchLayout::kBlocked);
  ASSERT_EQ(cs.layout(), SketchLayout::kBlocked);
  ExactFrequencies exact;
  ZipfGenerator zipf(10000, 1.3, 3);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t item = zipf.Next();
    cs.Update(item);
    exact.Update(item);
  }
  double mae = 0;
  int checked = 0;
  for (const auto& [item, count] : exact.TopK(50)) {
    mae += std::abs(static_cast<double>(cs.Estimate(item)) - count);
    ++checked;
  }
  mae /= checked;
  // Head items on a 1.3-skew stream are thousands strong; the blocked
  // sketch must still resolve them within a small additive error. The
  // bound is looser than a flat sketch would need: at depth 5 every row
  // shares the one block hash (one column per row), so collisions repeat
  // across rows and the median removes less noise.
  EXPECT_LE(mae, 300.0);
}

TEST(CountSketchBlockedTest, BatchMatchesPerItemBitExactly) {
  CountSketch per_item(512, 4, 13, SketchLayout::kBlocked);
  CountSketch batched(512, 4, 13, SketchLayout::kBlocked);
  const std::vector<uint64_t> items =
      ZipfGenerator(5000, 1.1, 13).Take(20000);
  for (uint64_t item : items) per_item.Update(item);
  batched.UpdateBatch(items);
  for (uint64_t item = 0; item < 200; ++item) {
    EXPECT_EQ(per_item.Estimate(item), batched.Estimate(item));
  }
  EXPECT_EQ(per_item.Serialize(), batched.Serialize());

  CountSketch weighted_per(512, 4, 13, SketchLayout::kBlocked);
  CountSketch weighted_bat(512, 4, 13, SketchLayout::kBlocked);
  std::vector<int64_t> weights(items.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<int64_t>(i % 7) - 3;
  }
  for (size_t i = 0; i < items.size(); ++i) {
    weighted_per.Update(items[i], weights[i]);
  }
  weighted_bat.UpdateBatch(items, weights);
  EXPECT_EQ(weighted_per.Serialize(), weighted_bat.Serialize());
}

TEST(CountSketchBlockedTest, SerializeRoundTripAndMerge) {
  CountSketch a(128, 4, 19, SketchLayout::kBlocked);
  CountSketch b(128, 4, 19, SketchLayout::kBlocked);
  CountSketch whole(128, 4, 19, SketchLayout::kBlocked);
  ZipfGenerator zipf(2000, 1.1, 19);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t item = zipf.Next();
    whole.Update(item);
    (i % 2 == 0 ? a : b).Update(item);
  }
  const std::vector<uint8_t> bytes = a.Serialize();
  auto r = CountSketch::Deserialize(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().layout(), SketchLayout::kBlocked);
  EXPECT_EQ(r.value().Serialize(), bytes);
  ASSERT_TRUE(a.Merge(b).ok());
  for (uint64_t item = 0; item < 100; ++item) {
    EXPECT_EQ(a.Estimate(item), whole.Estimate(item));
  }
  // Layout mismatch is rejected before any counter moves.
  CountSketch flat(128, 4, 19);
  EXPECT_EQ(flat.Merge(whole).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ CountSketch

TEST(CountSketchTest, UnbiasedNearZeroForAbsent) {
  CountSketch cs(1024, 5, 13);
  ZipfGenerator zipf(1000, 1.1, 13);
  for (int i = 0; i < 20000; ++i) cs.Update(zipf.Next());
  // An absent item should estimate near zero relative to N.
  EXPECT_LT(std::abs(cs.Estimate(0xDEADBEEFCAFEULL)), 2000);
}

TEST(CountSketchTest, SupportsNegativeUpdatesExactCancellation) {
  CountSketch cs(256, 5, 14);
  cs.Update(7, 100);
  cs.Update(7, -100);
  EXPECT_EQ(cs.Estimate(7), 0);
}

TEST(CountSketchTest, AccurateOnSkewedData) {
  CountSketch cs(2048, 5, 15);
  ExactFrequencies exact;
  ZipfGenerator zipf(100000, 1.3, 15);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    cs.Update(item);
    exact.Update(item);
  }
  for (const auto& [item, count] : exact.TopK(20)) {
    EXPECT_NEAR(static_cast<double>(cs.Estimate(item)),
                static_cast<double>(count), 0.15 * count + 50);
  }
}

TEST(CountSketchTest, BeatsCountMinOnHighSkew) {
  // The E3 headline: with equal space, Count sketch's L2 guarantee wins on
  // skewed streams for mid-frequency items.
  const int n = 200000;
  CountSketch cs(512, 5, 16);
  CountMinSketch cm(512, 5, 16);
  ExactFrequencies exact;
  ZipfGenerator zipf(100000, 1.4, 16);
  for (int i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    cs.Update(item);
    cm.Update(item);
    exact.Update(item);
  }
  double cs_err = 0, cm_err = 0;
  const auto top = exact.TopK(500);
  for (size_t rank = 100; rank < top.size(); ++rank) {  // Mid-tail items.
    const auto& [item, count] = top[rank];
    cs_err += std::abs(static_cast<double>(cs.Estimate(item)) - count);
    cm_err += std::abs(static_cast<double>(cm.Estimate(item)) - count);
  }
  EXPECT_LT(cs_err, cm_err);
}

TEST(CountSketchTest, F2EstimateMatchesExact) {
  CountSketch cs(4096, 5, 17);
  ExactFrequencies exact;
  ZipfGenerator zipf(10000, 1.1, 17);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t item = zipf.Next();
    cs.Update(item);
    exact.Update(item);
  }
  EXPECT_NEAR(cs.EstimateF2(), exact.F2(), 0.1 * exact.F2());
}

TEST(CountSketchTest, MergeEqualsSingleStream) {
  CountSketch a(256, 5, 18), b(256, 5, 18), whole(256, 5, 18);
  ZipfGenerator zipf(2000, 1.1, 18);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t item = zipf.Next();
    whole.Update(item);
    (i % 2 == 0 ? a : b).Update(item);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  for (uint64_t item = 0; item < 100; ++item) {
    EXPECT_EQ(a.Estimate(item), whole.Estimate(item));
  }
}

TEST(CountSketchTest, SerializeRoundTrip) {
  CountSketch cs(128, 3, 19);
  cs.Update(1, 10);
  cs.Update(2, -5);
  auto r = CountSketch::Deserialize(cs.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Estimate(1), cs.Estimate(1));
  EXPECT_EQ(r.value().Estimate(2), cs.Estimate(2));
}

// ------------------------------------------------------------- MisraGries

TEST(MisraGriesTest, NeverOverestimates) {
  MisraGries mg(100);
  ExactFrequencies exact;
  ZipfGenerator zipf(10000, 1.2, 20);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t item = zipf.Next();
    mg.Update(item);
    exact.Update(item);
  }
  for (const auto& [item, count] : mg.Entries()) {
    EXPECT_LE(count, exact.Count(item));
  }
}

TEST(MisraGriesTest, UndercountBoundedByNOverK) {
  const size_t k = 100;
  MisraGries mg(k);
  ExactFrequencies exact;
  ZipfGenerator zipf(10000, 1.2, 21);
  const int64_t n = 50000;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    mg.Update(item);
    exact.Update(item);
  }
  EXPECT_LE(mg.ErrorBound(), n / static_cast<int64_t>(k) + 1);
  for (const auto& [item, count] : exact.TopK(20)) {
    EXPECT_GE(mg.Estimate(item) + mg.ErrorBound(), count);
  }
}

TEST(MisraGriesTest, GuaranteedRecallOfHeavyItems) {
  MisraGries mg(99);  // k-1 counters for k = 100 -> catches > N/100 items.
  ExactFrequencies exact;
  ZipfGenerator zipf(100000, 1.5, 22);
  const int64_t n = 100000;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    mg.Update(item);
    exact.Update(item);
  }
  const double phi = 0.01;
  const auto truth = exact.ItemsAbove(static_cast<int64_t>(phi * n) + 1);
  const auto candidates = mg.HeavyHitterCandidates(phi);
  RetrievalQuality q = CompareSets(candidates, truth);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);  // No false negatives, ever.
}

TEST(MisraGriesTest, WeightedUpdates) {
  MisraGries mg(10);
  mg.Update(1, 100);
  mg.Update(2, 50);
  EXPECT_EQ(mg.Estimate(1), 100);
  EXPECT_EQ(mg.Estimate(2), 50);
  EXPECT_EQ(mg.TotalWeight(), 150);
}

TEST(MisraGriesTest, EvictionPath) {
  MisraGries mg(2);
  mg.Update(1, 5);
  mg.Update(2, 3);
  mg.Update(3, 4);  // Decrements all by 3: {1:2, 3:1}.
  EXPECT_EQ(mg.Estimate(1), 2);
  EXPECT_EQ(mg.Estimate(2), 0);
  EXPECT_EQ(mg.Estimate(3), 1);
  EXPECT_EQ(mg.ErrorBound(), 3);
}

TEST(MisraGriesTest, MergePreservesGuarantees) {
  MisraGries a(50), b(50);
  ExactFrequencies exact;
  ZipfGenerator za(5000, 1.3, 23), zb(5000, 1.3, 24);
  const int64_t n = 40000;
  for (int64_t i = 0; i < n / 2; ++i) {
    uint64_t x = za.Next(), y = zb.Next();
    a.Update(x);
    exact.Update(x);
    b.Update(y);
    exact.Update(y);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_LE(a.NumTracked(), 50u);
  // Still never overestimates, and undercount stays bounded.
  for (const auto& [item, count] : a.Entries()) {
    EXPECT_LE(count, exact.Count(item));
  }
  for (const auto& [item, count] : exact.TopK(10)) {
    EXPECT_GE(a.Estimate(item) + a.ErrorBound(), count);
  }
}

TEST(MisraGriesTest, SerializeRoundTrip) {
  MisraGries mg(20);
  ZipfGenerator zipf(100, 1.0, 25);
  for (int i = 0; i < 1000; ++i) mg.Update(zipf.Next());
  auto r = MisraGries::Deserialize(mg.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Entries(), mg.Entries());
  EXPECT_EQ(r.value().ErrorBound(), mg.ErrorBound());
}

// ------------------------------------------------------------ SpaceSaving

TEST(SpaceSavingTest, AlwaysOverestimatesWithBoundedError) {
  SpaceSaving ss(100);
  ExactFrequencies exact;
  ZipfGenerator zipf(10000, 1.2, 26);
  const int64_t n = 50000;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    ss.Update(item);
    exact.Update(item);
  }
  for (const auto& entry : ss.Entries()) {
    const int64_t truth = exact.Count(entry.item);
    EXPECT_GE(entry.count, truth);
    EXPECT_LE(entry.count - truth, entry.error);
    EXPECT_LE(entry.error, n / 100);
  }
}

TEST(SpaceSavingTest, TopKMatchesTruthOnSkewedStream) {
  SpaceSaving ss(200);
  ExactFrequencies exact;
  ZipfGenerator zipf(100000, 1.4, 27);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t item = zipf.Next();
    ss.Update(item);
    exact.Update(item);
  }
  std::vector<uint64_t> truth, retrieved;
  for (const auto& [item, count] : exact.TopK(20)) truth.push_back(item);
  for (const auto& entry : ss.TopK(20)) retrieved.push_back(entry.item);
  RetrievalQuality q = CompareSets(retrieved, truth);
  EXPECT_GE(q.recall, 0.9);
}

TEST(SpaceSavingTest, GuaranteedExactFlagIsSound) {
  SpaceSaving ss(50);
  ExactFrequencies exact;
  ZipfGenerator zipf(2000, 1.3, 28);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t item = zipf.Next();
    ss.Update(item);
    exact.Update(item);
  }
  for (const auto& entry : ss.Entries()) {
    if (ss.IsGuaranteedExact(entry.item)) {
      EXPECT_EQ(entry.count, exact.Count(entry.item));
    }
  }
}

TEST(SpaceSavingTest, CapacityIsRespected) {
  SpaceSaving ss(10);
  for (uint64_t item = 0; item < 1000; ++item) ss.Update(item);
  EXPECT_EQ(ss.NumTracked(), 10u);
  EXPECT_EQ(ss.TotalWeight(), 1000);
}

TEST(SpaceSavingTest, HeavyHitterRecallIsPerfect) {
  SpaceSaving ss(1000);  // capacity 1/phi with phi = 0.001.
  ExactFrequencies exact;
  ZipfGenerator zipf(100000, 1.2, 29);
  const int64_t n = 200000;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    ss.Update(item);
    exact.Update(item);
  }
  const double phi = 0.001;
  const auto truth = exact.ItemsAbove(static_cast<int64_t>(phi * n) + 1);
  RetrievalQuality q = CompareSets(ss.HeavyHitterCandidates(phi), truth);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

TEST(SpaceSavingTest, MergeKeepsOverestimateProperty) {
  SpaceSaving a(100), b(100);
  ExactFrequencies exact;
  ZipfGenerator za(5000, 1.3, 30), zb(5000, 1.3, 31);
  for (int i = 0; i < 20000; ++i) {
    uint64_t x = za.Next(), y = zb.Next();
    a.Update(x);
    exact.Update(x);
    b.Update(y);
    exact.Update(y);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_LE(a.NumTracked(), 100u);
  for (const auto& entry : a.TopK(20)) {
    EXPECT_GE(entry.count, exact.Count(entry.item));
  }
}

TEST(SpaceSavingTest, SerializeRoundTrip) {
  SpaceSaving ss(30);
  ZipfGenerator zipf(500, 1.1, 32);
  for (int i = 0; i < 5000; ++i) ss.Update(zipf.Next());
  auto r = SpaceSaving::Deserialize(ss.Serialize());
  ASSERT_TRUE(r.ok());
  const auto before = ss.Entries();
  const auto after = r.value().Entries();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].item, after[i].item);
    EXPECT_EQ(before[i].count, after[i].count);
    EXPECT_EQ(before[i].error, after[i].error);
  }
}

// SpaceSaving's slot index (capacity > 128) must be invisible: the
// summary has to evolve exactly as the plain linear-scan implementation
// below, which keeps the slot layout, eviction rule, merge and wire order
// the index was built against.
class ScanSpaceSaving {
 public:
  explicit ScanSpaceSaving(size_t capacity) : capacity_(capacity) {}

  void Update(uint64_t item, int64_t weight = 1) {
    total_ += weight;
    const size_t found = Find(item);
    if (found < slots_.size()) {
      slots_[found].count += weight;
      return;
    }
    if (slots_.size() < capacity_) {
      slots_.push_back({item, weight, 0});
      return;
    }
    size_t weakest = 0;
    for (size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].count < slots_[weakest].count ||
          (slots_[i].count == slots_[weakest].count &&
           slots_[i].item < slots_[weakest].item)) {
        weakest = i;
      }
    }
    const int64_t min_count = slots_[weakest].count;
    slots_[weakest] = {item, min_count + weight, min_count};
  }

  // Runs of equal adjacent items coalesce into one weighted update.
  void UpdateBatch(std::span<const uint64_t> items,
                   std::span<const int64_t> weights) {
    size_t i = 0;
    while (i < items.size()) {
      int64_t weight = weights[i];
      size_t j = i + 1;
      while (j < items.size() && items[j] == items[i]) weight += weights[j++];
      Update(items[i], weight);
      i = j;
    }
  }

  void Merge(const ScanSpaceSaving& other) {
    std::vector<SpaceSaving::Entry> all = slots_;
    all.insert(all.end(), other.slots_.begin(), other.slots_.end());
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.item < b.item; });
    size_t out = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      if (out > 0 && all[out - 1].item == all[i].item) {
        all[out - 1].count += all[i].count;
        all[out - 1].error += all[i].error;
      } else {
        all[out++] = all[i];
      }
    }
    all.resize(out);
    slots_ = std::move(all);
    Canonicalize();
    if (slots_.size() > capacity_) slots_.resize(capacity_);
    total_ += other.total_;
  }

  // What a serialize/deserialize round trip does to the slot order.
  void Canonicalize() {
    std::sort(slots_.begin(), slots_.end(),
              [](const auto& a, const auto& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.item < b.item;
              });
  }

  std::vector<uint8_t> Serialize() const {
    ScanSpaceSaving sorted = *this;
    sorted.Canonicalize();
    std::vector<uint8_t> out;
    ByteSink sink(&out);
    EnvelopeBuilder env(sink, SketchTypeId::kSpaceSaving);
    sink.PutVarint(capacity_);
    sink.PutI64(total_);
    sink.PutVarint(slots_.size());
    for (const auto& slot : sorted.slots_) {
      sink.PutU64(slot.item);
      sink.PutI64(slot.count);
      sink.PutI64(slot.error);
    }
    env.Finish();
    return out;
  }

  // The first k entries of the canonical order.
  std::vector<SpaceSaving::Entry> TopK(size_t k) const {
    ScanSpaceSaving sorted = *this;
    sorted.Canonicalize();
    if (sorted.slots_.size() > k) sorted.slots_.resize(k);
    return sorted.slots_;
  }

  int64_t MinCount() const {
    if (slots_.size() < capacity_ || slots_.empty()) return 0;
    int64_t min_count = slots_[0].count;
    for (const auto& slot : slots_) {
      min_count = std::min(min_count, slot.count);
    }
    return min_count;
  }
  int64_t Estimate(uint64_t item) const {
    const size_t i = Find(item);
    return i < slots_.size() ? slots_[i].count : MinCount();
  }
  int64_t ErrorOf(uint64_t item) const {
    const size_t i = Find(item);
    return i < slots_.size() ? slots_[i].error : MinCount();
  }
  bool IsGuaranteedExact(uint64_t item) const {
    const size_t i = Find(item);
    return i < slots_.size() && slots_[i].error == 0;
  }
  bool Tracks(uint64_t item) const { return Find(item) < slots_.size(); }
  std::vector<uint64_t> HeavyHitterCandidates(double phi) const {
    const double threshold = phi * static_cast<double>(total_);
    std::vector<uint64_t> out;
    for (const auto& slot : slots_) {
      if (static_cast<double>(slot.count) >= threshold) {
        out.push_back(slot.item);
      }
    }
    return out;
  }

 private:
  size_t Find(uint64_t item) const {
    size_t i = 0;
    while (i < slots_.size() && slots_[i].item != item) ++i;
    return i;
  }

  size_t capacity_;
  int64_t total_ = 0;
  std::vector<SpaceSaving::Entry> slots_;
};

void ExpectSameEntries(const std::vector<SpaceSaving::Entry>& got,
                       const std::vector<SpaceSaving::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].item, want[i].item) << i;
    ASSERT_EQ(got[i].count, want[i].count) << i;
    ASSERT_EQ(got[i].error, want[i].error) << i;
  }
}

void ExpectSameSummary(const SpaceSaving& got, const ScanSpaceSaving& want,
                       uint64_t universe, Rng& rng) {
  ASSERT_EQ(got.Serialize(), want.Serialize());
  EXPECT_EQ(got.MinCount(), want.MinCount());
  // TopK is a partial sort below the tracked size and a full one at or
  // above it.
  for (size_t k : {size_t{0}, size_t{1}, size_t{10}, got.capacity(),
                   got.NumTracked() + 1}) {
    SCOPED_TRACE(::testing::Message() << "TopK(" << k << ")");
    ExpectSameEntries(got.TopK(k), want.TopK(k));
  }
  // Candidate order is slot order, so this pins the layout too.
  for (double phi : {0.0, 0.001, 0.01, 0.1}) {
    ASSERT_EQ(got.HeavyHitterCandidates(phi), want.HeavyHitterCandidates(phi));
  }
  std::vector<uint64_t> probes = got.HeavyHitterCandidates(0.0);
  for (int i = 0; i < 32; ++i) probes.push_back(rng.NextBounded(2 * universe));
  for (uint64_t item : probes) {
    ASSERT_EQ(got.Estimate(item), want.Estimate(item)) << item;
    ASSERT_EQ(got.ErrorOf(item), want.ErrorOf(item)) << item;
    ASSERT_EQ(got.IsGuaranteedExact(item), want.IsGuaranteedExact(item))
        << item;
  }
}

// Items for one op. Zipf-like skew from squaring a uniform, runs of equal
// items for the batch coalescing, and (ties) a shuffled sweep of the
// universe so every tracked count stays equal and each eviction is a tie.
std::vector<uint64_t> DifferentialItems(Rng& rng, uint64_t universe,
                                        bool ties, size_t n) {
  std::vector<uint64_t> items;
  for (size_t i = 0; i < n; ++i) {
    if (ties) {
      items.push_back(rng.NextBounded(universe));
      continue;
    }
    const double u = rng.NextDouble();
    const auto item =
        static_cast<uint64_t>(u * u * static_cast<double>(universe));
    const size_t run = rng.NextBounded(4) == 0 ? 1 + rng.NextBounded(5) : 1;
    items.insert(items.end(), run, item);
  }
  return items;
}

void RunDifferential(size_t capacity, bool ties, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity << " ties "
                                    << ties << " seed " << seed);
  Rng rng(seed);
  const uint64_t universe = 3 * capacity + 7;
  SpaceSaving got(capacity);
  ScanSpaceSaving want(capacity);
  if (ties) {
    // Every item once: all counts 1, then every eviction breaks a tie.
    for (uint64_t item = universe; item-- > 0;) {
      got.Update(item);
      want.Update(item);
    }
    ExpectSameSummary(got, want, universe, rng);
  }
  for (int step = 0; step < 60; ++step) {
    const size_t n = 1 + rng.NextBounded(3 * capacity / 2 + 40);
    const std::vector<uint64_t> items =
        DifferentialItems(rng, universe, ties, n);
    std::vector<int64_t> weights(items.size(), 1);
    const uint64_t op = rng.NextBounded(7);
    if (!ties && (op == 1 || op == 3)) {
      for (int64_t& w : weights) {
        w = 1 + static_cast<int64_t>(rng.NextBounded(9));
      }
    }
    switch (op) {
      case 0:
      case 1:
        for (size_t i = 0; i < items.size(); ++i) {
          got.Update(items[i], weights[i]);
        }
        break;
      case 2:
        got.UpdateBatch(items);
        break;
      case 3:
        got.UpdateBatch(items, weights);
        break;
      case 4:
      case 5: {
        SpaceSaving peer(capacity);
        ScanSpaceSaving peer_want(capacity);
        peer.UpdateBatch(items);
        peer_want.UpdateBatch(items, weights);
        ExpectSameSummary(peer, peer_want, universe, rng);
        want.Merge(peer_want);
        if (op == 4) {
          ASSERT_TRUE(got.Merge(peer).ok());
        } else {
          const std::vector<uint8_t> bytes = peer.Serialize();
          Result<View<SpaceSaving>> view = View<SpaceSaving>::Wrap(bytes);
          ASSERT_TRUE(view.ok());
          ASSERT_TRUE(MergeFromView(got, view.value()).ok());
        }
        ExpectSameSummary(got, want, universe, rng);
        continue;
      }
      case 6: {
        Result<SpaceSaving> restored =
            SpaceSaving::Deserialize(got.Serialize());
        ASSERT_TRUE(restored.ok());
        got = std::move(restored).value();
        want.Canonicalize();
        for (uint64_t item : items) got.Update(item);
        break;
      }
    }
    if (op != 4 && op != 5) want.UpdateBatch(items, weights);
    ExpectSameSummary(got, want, universe, rng);
  }
}

TEST(SpaceSavingTest, MatchesLinearScanReference) {
  for (size_t capacity : {1, 2, 128, 129, 1000, 1024}) {
    for (bool ties : {false, true}) {
      RunDifferential(capacity, ties, 1000 * capacity + (ties ? 1 : 0));
      if (HasFatalFailure()) return;
    }
  }
}

// Merge shapes the random op mix reaches rarely or never: into an empty
// summary, from an empty peer, into a count-sorted target (every merge
// result is one) with heavy overlap, and all-ties summaries.
void RunMergeShapes(size_t capacity) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
  Rng rng(capacity);
  const uint64_t universe = capacity + capacity / 4 + 3;
  const auto fill = [&](SpaceSaving& got, ScanSpaceSaving& want, size_t n,
                        uint64_t lo, uint64_t span, bool unit) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t item = lo + rng.NextBounded(span);
      const int64_t weight =
          unit ? 1 : 1 + static_cast<int64_t>(rng.NextBounded(5));
      got.Update(item, weight);
      want.Update(item, weight);
    }
  };

  // Into an empty summary, then from an empty peer.
  SpaceSaving got(capacity);
  ScanSpaceSaving want(capacity);
  SpaceSaving peer(capacity);
  ScanSpaceSaving peer_want(capacity);
  fill(peer, peer_want, 3 * capacity, 0, universe, false);
  ASSERT_TRUE(got.Merge(peer).ok());
  want.Merge(peer_want);
  ExpectSameSummary(got, want, universe, rng);
  fill(got, want, capacity, 0, universe, false);  // Unsorted again.
  ASSERT_TRUE(got.Merge(SpaceSaving(capacity)).ok());
  want.Merge(ScanSpaceSaving(capacity));
  ExpectSameSummary(got, want, universe, rng);

  // A count-sorted target (the last merge left it so) taking peers that
  // overlap it heavily, several times over.
  for (int round = 0; round < 6; ++round) {
    SpaceSaving overlap(capacity);
    ScanSpaceSaving overlap_want(capacity);
    fill(overlap, overlap_want, 2 * capacity, round, universe, false);
    ASSERT_TRUE(got.Merge(overlap).ok());
    want.Merge(overlap_want);
    ExpectSameSummary(got, want, universe, rng);
  }

  // All ties: every count 1 on both sides, half the items shared.
  SpaceSaving ties(capacity), ties_peer(capacity);
  ScanSpaceSaving ties_want(capacity), ties_peer_want(capacity);
  for (uint64_t item = 0; item < capacity; ++item) {
    ties.Update(2 * item);
    ties_want.Update(2 * item);
    ties_peer.Update(item);
    ties_peer_want.Update(item);
  }
  ASSERT_TRUE(ties.Merge(ties_peer).ok());
  ties_want.Merge(ties_peer_want);
  ExpectSameSummary(ties, ties_want, 2 * capacity, rng);
  ASSERT_TRUE(ties.Merge(ties_peer).ok());  // Sorted target, all tied peer.
  ties_want.Merge(ties_peer_want);
  ExpectSameSummary(ties, ties_want, 2 * capacity, rng);
}

TEST(SpaceSavingTest, MergeShapesMatchLinearScanReference) {
  for (size_t capacity : {1, 2, 64, 128, 129, 1024}) {
    RunMergeShapes(capacity);
    if (HasFatalFailure()) return;
  }
}

// The min-count run above 128 slots: the eviction order must stay the
// scan's through stale run entries, weighted misses, copies taken part way
// through a level, and merge and restore.

// Distinct items over all eight bytes: 0, UINT64_MAX, high-bit-set values
// and full-width random ones, which differ in every radix digit, and small
// ones, whose shared high bytes a run of only them skips.
std::vector<uint64_t> WideItems(Rng& rng, size_t n) {
  std::vector<uint64_t> items = {0,
                                 UINT64_MAX,
                                 UINT64_MAX - 1,
                                 uint64_t{1} << 63,
                                 (uint64_t{1} << 63) | 1,
                                 0xff00000000000000ull,
                                 0x00ff000000000000ull};
  while (items.size() < n) {
    switch (items.size() % 3) {
      case 0:
        items.push_back(rng.NextU64());
        break;
      case 1:
        items.push_back(rng.NextU64() | (uint64_t{1} << 63));
        break;
      default:
        items.push_back(rng.NextBounded(uint64_t{1} << 16));
    }
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
  return items;
}

void RunMinCountRun(size_t capacity) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
  Rng rng(capacity + 17);
  const std::vector<uint64_t> pool = WideItems(rng, 3 * capacity);
  const uint64_t universe = pool.size();
  // Every summary in `got` sees the same updates as `want`.
  std::vector<SpaceSaving> got;
  got.emplace_back(capacity);
  ScanSpaceSaving want(capacity);
  const auto update = [&](uint64_t item, int64_t weight) {
    for (SpaceSaving& ss : got) ss.Update(item, weight);
    want.Update(item, weight);
  };
  const auto expect_same = [&] {
    for (const SpaceSaving& ss : got) {
      ExpectSameSummary(ss, want, universe, rng);
      ASSERT_EQ(ss.Serialize(), got[0].Serialize());
    }
  };
  const auto skewed = [&] {
    const double u = rng.NextDouble();
    return pool[static_cast<size_t>(u * u * static_cast<double>(universe))];
  };
  // Rounds of: a hit on a slot still at the minimum (its run entry goes
  // stale before it is popped; hitting a level's last live entry leaves the
  // run all stale), then a weighted miss, then a skewed item.
  const auto churn = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const int64_t min_count = got[0].MinCount();
      ASSERT_EQ(min_count, want.MinCount());
      const std::vector<SpaceSaving::Entry> entries = got[0].Entries();
      size_t first_min = entries.size();
      while (first_min > 0 && entries[first_min - 1].count == min_count) {
        --first_min;
      }
      const size_t pick =
          first_min + rng.NextBounded(entries.size() - first_min);
      update(entries[pick].item, 1 + static_cast<int64_t>(rng.NextBounded(3)));
      uint64_t fresh = pool[rng.NextBounded(universe)];
      while (want.Tracks(fresh)) fresh = pool[rng.NextBounded(universe)];
      update(fresh, 1 + static_cast<int64_t>(rng.NextBounded(9)));
      update(skewed(), 1);
    }
  };

  for (size_t i = 0; i < 2 * capacity; ++i) update(skewed(), 1);
  expect_same();
  churn(300);
  expect_same();

  // Copies part way through a level: both go on in step with the original.
  got.push_back(got[0]);
  got.emplace_back(capacity);
  got.back().Update(pool[0]);
  got.back() = got[0];
  churn(300);
  expect_same();
  for (size_t i = 0; i < capacity; ++i) update(skewed(), 1);
  expect_same();
  got.erase(got.begin() + 1, got.end());

  // Merge, restore, then evict again from a rebuilt index and run.
  SpaceSaving peer(capacity);
  ScanSpaceSaving peer_want(capacity);
  for (size_t i = 0; i < 2 * capacity; ++i) {
    const uint64_t item = skewed();
    const auto weight = 1 + static_cast<int64_t>(rng.NextBounded(4));
    peer.Update(item, weight);
    peer_want.Update(item, weight);
  }
  ASSERT_TRUE(got[0].Merge(peer).ok());
  want.Merge(peer_want);
  expect_same();
  Result<SpaceSaving> restored = SpaceSaving::Deserialize(got[0].Serialize());
  ASSERT_TRUE(restored.ok());
  got[0] = std::move(restored).value();
  want.Canonicalize();
  churn(300);
  expect_same();
  std::vector<uint64_t> batch;
  for (size_t i = 0; i < 2 * capacity; ++i) batch.push_back(skewed());
  got[0].UpdateBatch(batch);
  want.UpdateBatch(batch, std::vector<int64_t>(batch.size(), 1));
  expect_same();
}

TEST(SpaceSavingTest, MinCountRunMatchesLinearScanReference) {
  for (size_t capacity : {129, 1024, 4096}) {
    RunMinCountRun(capacity);
    if (HasFatalFailure()) return;
  }
}

// The index lives behind one pointer: a summary is capacity, total, slot
// vector and that pointer (48 bytes on LP64), and a large summary's index
// block holds its table, run and radix scratch in 4 words per slot plus a
// fixed header, however far the run has been consumed.
TEST(SpaceSavingTest, IndexStaysInOneLazyBlock) {
  EXPECT_EQ(sizeof(SpaceSaving), sizeof(size_t) + sizeof(int64_t) +
                                     sizeof(std::vector<uint64_t>) +
                                     sizeof(void*));
  constexpr size_t kHeaderBytes = 64;
  SpaceSaving small(128);
  for (uint64_t item = 0; item < 1000; ++item) small.Update(item);
  EXPECT_EQ(small.IndexBytes(), 0u);
  for (size_t capacity : {129, 1024, 4096}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    SpaceSaving ss(capacity);
    EXPECT_EQ(ss.IndexBytes(), 0u);
    ZipfGenerator zipf(20 * capacity, 1.1, capacity);
    for (size_t i = 0; i < 20 * capacity; ++i) ss.Update(zipf.Next());
    ASSERT_EQ(ss.NumTracked(), capacity);
    EXPECT_GT(ss.IndexBytes(), 0u);
    EXPECT_LE(ss.IndexBytes(), 4 * std::bit_ceil(capacity) * sizeof(uint32_t) +
                                   kHeaderBytes);
    ASSERT_TRUE(ss.Merge(SpaceSaving(capacity)).ok());
    EXPECT_EQ(ss.IndexBytes(), 0u);
  }
}

// A weighted batch refuses what the same items would refuse one by one: a
// weight below 1 inside a coalesced run, and a run or total past INT64_MAX.
TEST(SpaceSavingDeathTest, WeightedBatchChecksEveryWeight) {
  const std::vector<uint64_t> items = {7, 7};
  for (size_t capacity : {16, 1024}) {
    SpaceSaving ss(capacity);
    EXPECT_DEATH(ss.UpdateBatch(items, std::vector<int64_t>{3, 0}), "");
    EXPECT_DEATH(ss.UpdateBatch(items, std::vector<int64_t>{5, -3}), "");
    EXPECT_DEATH(ss.UpdateBatch(items, std::vector<int64_t>{INT64_MAX, 1}),
                 "");
    EXPECT_DEATH(ss.Update(7, 0), "");
    ss.Update(7, INT64_MAX - 1);
    EXPECT_DEATH(ss.UpdateBatch({{8}}, std::vector<int64_t>{2}), "");
    EXPECT_DEATH(ss.Update(8, 2), "");
    ss.UpdateBatch({{8}}, std::vector<int64_t>{1});
    EXPECT_EQ(ss.TotalWeight(), INT64_MAX);
  }
}

// MisraGries refuses a total past INT64_MAX the same way, weighted or by a
// batch run, tracked item or new one.
TEST(MisraGriesDeathTest, TotalPastInt64MaxAborts) {
  MisraGries mg(4);
  mg.Update(1, INT64_MAX - 1);
  EXPECT_DEATH(mg.Update(2, 2), "");
  EXPECT_DEATH(mg.Update(1, 2), "");
  EXPECT_DEATH(mg.UpdateBatch(std::vector<uint64_t>{1, 1}), "");
  EXPECT_DEATH(mg.UpdateBatch(std::vector<uint64_t>{3, 3}), "");
  mg.Update(2, 1);
  EXPECT_EQ(mg.TotalWeight(), INT64_MAX);

  MisraGries fresh(4);
  fresh.Update(1, INT64_MAX);
  EXPECT_DEATH(fresh.Update(2, 1), "");
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(SpaceSavingTest, LargeSummaryImagesArePinned) {
  // Digests of 1,024-slot images taken from the linear-scan implementation
  // before the slot index existed: byte identity against the old code, not
  // only against the in-test reference.
  SpaceSaving a(1024), b(1024);
  ZipfGenerator za(100000, 1.1, 2024), zb(100000, 1.1, 2025);
  for (int i = 0; i < 200000; ++i) a.Update(za.Next(), 1 + i % 3);
  EXPECT_EQ(Fnv1a(a.Serialize()), 0x9aa05643827e7943ull);
  b.UpdateBatch(zb.Take(200000));
  EXPECT_EQ(Fnv1a(b.Serialize()), 0x696a9a6147ba85e5ull);
  ASSERT_TRUE(a.Merge(b).ok());
  for (int i = 0; i < 50000; ++i) a.Update(za.Next());
  EXPECT_EQ(Fnv1a(a.Serialize()), 0xf6dd993cd2fbb7c6ull);
}

// ---------------------------------------------------------------- Majority

TEST(MajorityTest, FindsStrictMajority) {
  MajorityVote mv;
  for (int i = 0; i < 60; ++i) mv.Update(7);
  for (int i = 0; i < 40; ++i) mv.Update(static_cast<uint64_t>(i + 100));
  ASSERT_TRUE(mv.Candidate().has_value());
  EXPECT_EQ(*mv.Candidate(), 7u);
}

TEST(MajorityTest, EmptyHasNoCandidate) {
  MajorityVote mv;
  EXPECT_FALSE(mv.Candidate().has_value());
}

TEST(MajorityTest, InterleavedMajoritySurvives) {
  MajorityVote mv;
  for (int i = 0; i < 50; ++i) {
    mv.Update(1);
    mv.Update(static_cast<uint64_t>(i + 10));
    mv.Update(1);
  }
  EXPECT_EQ(*mv.Candidate(), 1u);
  EXPECT_EQ(mv.TotalSeen(), 150u);
}

// --------------------------------------------------------- Dyadic CountMin

TEST(DyadicCountMinTest, RangeSumOverestimatesBounded) {
  DyadicCountMin dcm(16, 2048, 4, 33);
  ExactFrequencies exact;
  UniformItemGenerator gen(1 << 16, 33);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const uint64_t x = gen.Next();
    dcm.Update(x);
    exact.Update(x);
  }
  // Check a few ranges against the exact counts.
  struct Range {
    uint64_t lo, hi;
  };
  for (const Range& range : {Range{0, 999}, Range{1000, 65535},
                             Range{12345, 23456}, Range{40000, 40000}}) {
    int64_t truth = 0;
    for (uint64_t x = range.lo; x <= range.hi; ++x) truth += exact.Count(x);
    const uint64_t estimate = dcm.EstimateRangeSum(range.lo, range.hi);
    EXPECT_GE(estimate, static_cast<uint64_t>(truth));
    EXPECT_LE(estimate,
              static_cast<uint64_t>(truth) + n / 50 + 100);
  }
}

TEST(DyadicCountMinTest, FullRangeEqualsTotal) {
  DyadicCountMin dcm(10, 512, 4, 34);
  for (uint64_t x = 0; x < 1024; ++x) dcm.Update(x, 2);
  EXPECT_GE(dcm.EstimateRangeSum(0, 1023), 2048u);
}

TEST(DyadicCountMinTest, QuantilesOnUniformData) {
  DyadicCountMin dcm(16, 4096, 4, 35);
  UniformItemGenerator gen(1 << 16, 35);
  for (int i = 0; i < 100000; ++i) dcm.Update(gen.Next());
  const uint64_t median = dcm.EstimateQuantile(0.5);
  EXPECT_NEAR(static_cast<double>(median), 32768.0, 3000.0);
  const uint64_t p90 = dcm.EstimateQuantile(0.9);
  EXPECT_NEAR(static_cast<double>(p90), 0.9 * 65536, 3000.0);
  EXPECT_LE(dcm.EstimateQuantile(0.0), dcm.EstimateQuantile(1.0));
}

TEST(DyadicCountMinTest, MergeAddsRanges) {
  DyadicCountMin a(8, 256, 4, 36), b(8, 256, 4, 36);
  for (uint64_t x = 0; x < 128; ++x) a.Update(x);
  for (uint64_t x = 128; x < 256; ++x) b.Update(x);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_GE(a.EstimateRangeSum(0, 255), 256u);
  EXPECT_EQ(a.TotalWeight(), 256);
}

// ----------------------------------- MG vs SpaceSaving duality (paper note)

TEST(FrequencyDualityTest, SpaceSavingEqualsMisraGriesPlusOffset) {
  // Metwally et al.'s SS and Misra-Gries track the same items with counts
  // differing by bounded offsets; verify both recover the same top items.
  SpaceSaving ss(64);
  MisraGries mg(64);
  ZipfGenerator zipf(10000, 1.3, 37);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t item = zipf.Next();
    ss.Update(item);
    mg.Update(item);
  }
  std::vector<uint64_t> ss_top, mg_top;
  for (const auto& entry : ss.TopK(10)) ss_top.push_back(entry.item);
  int taken = 0;
  for (const auto& [item, count] : mg.Entries()) {
    if (taken++ >= 10) break;
    mg_top.push_back(item);
  }
  RetrievalQuality q = CompareSets(ss_top, mg_top);
  EXPECT_GE(q.f1, 0.8);
}

}  // namespace
}  // namespace gems
