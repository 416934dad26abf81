#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/status.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"
#include "quantiles/gk.h"
#include "quantiles/kll.h"
#include "quantiles/mrl.h"
#include "quantiles/qdigest.h"
#include "quantiles/req.h"
#include "quantiles/tdigest.h"
#include "workload/baselines.h"
#include "workload/generators.h"
#include "workload/metrics.h"

namespace gems {

struct ReqSketchTestPeer {
  static void SetCount(ReqSketch& req, uint64_t count) { req.count_ = count; }
};

namespace {

static_assert(ValueSummary<KllSketch> && MergeableSummary<KllSketch>);
static_assert(ValueSummary<TDigest> && MergeableSummary<TDigest>);
static_assert(MergeableSummary<QDigest>);
static_assert(ValueSummary<GreenwaldKhanna>);
static_assert(SerializableSummary<KllSketch>);
static_assert(SerializableSummary<QDigest>);
static_assert(SerializableSummary<TDigest>);

// Helper: max normalized rank error of a quantile function over a dataset.
// With duplicated values a returned value covers a whole rank interval
// [count(< v), count(<= v)]; the error is the distance from the target rank
// to that interval (zero if the target falls inside it).
template <typename QuantileFn>
double MaxRankError(std::vector<double> data, QuantileFn quantile) {
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  double worst = 0.0;
  for (double q : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double v = quantile(q);
    const double rank_low = static_cast<double>(
        std::lower_bound(data.begin(), data.end(), v) - data.begin());
    const double rank_high = static_cast<double>(
        std::upper_bound(data.begin(), data.end(), v) - data.begin());
    const double target = q * n;
    double err = 0.0;
    if (target < rank_low) err = rank_low - target;
    if (target > rank_high) err = target - rank_high;
    worst = std::max(worst, err / n);
  }
  return worst;
}

// --------------------------------------------------------------------- GK

TEST(GreenwaldKhannaTest, RankErrorWithinEpsilon) {
  for (auto dist : {ValueDistribution::kUniform, ValueDistribution::kSorted,
                    ValueDistribution::kReverse}) {
    GreenwaldKhanna gk(0.01);
    auto data = GenerateValues(dist, 50000, 7);
    for (double v : data) gk.Update(v);
    const double err =
        MaxRankError(data, [&](double q) { return gk.Quantile(q); });
    EXPECT_LE(err, 0.011) << "distribution " << static_cast<int>(dist);
  }
}

TEST(GreenwaldKhannaTest, SublinearSpace) {
  GreenwaldKhanna gk(0.01);
  for (double v : GenerateValues(ValueDistribution::kUniform, 100000, 8)) {
    gk.Update(v);
  }
  // Theory: O((1/eps) log(eps n)) tuples; generous cap.
  EXPECT_LT(gk.NumTuples(), 4000u);
}

TEST(GreenwaldKhannaTest, RankQuery) {
  GreenwaldKhanna gk(0.01);
  for (int i = 0; i < 10000; ++i) gk.Update(static_cast<double>(i));
  EXPECT_NEAR(static_cast<double>(gk.Rank(5000.0)), 5000.0, 150.0);
  EXPECT_NEAR(static_cast<double>(gk.Rank(100.0)), 100.0, 150.0);
}

TEST(GreenwaldKhannaTest, SingleValue) {
  GreenwaldKhanna gk(0.1);
  gk.Update(42.0);
  EXPECT_DOUBLE_EQ(gk.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(gk.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(gk.Quantile(1.0), 42.0);
}

TEST(GreenwaldKhannaTest, ExtremeQuantilesAreExact) {
  GreenwaldKhanna gk(0.05);
  auto data = GenerateValues(ValueDistribution::kGaussian, 20000, 9);
  for (double v : data) gk.Update(v);
  std::sort(data.begin(), data.end());
  // Min and max are tracked exactly (delta = 0 tuples at the ends).
  EXPECT_DOUBLE_EQ(gk.Quantile(0.0), data.front());
  EXPECT_DOUBLE_EQ(gk.Quantile(1.0), data.back());
}

// -------------------------------------------------------------------- KLL

TEST(KllTest, RankErrorShrinksWithK) {
  auto data = GenerateValues(ValueDistribution::kGaussian, 100000, 10);
  double err_small, err_large;
  {
    KllSketch kll(64, 1);
    for (double v : data) kll.Update(v);
    err_small = MaxRankError(data, [&](double q) { return kll.Quantile(q); });
  }
  {
    KllSketch kll(512, 1);
    for (double v : data) kll.Update(v);
    err_large = MaxRankError(data, [&](double q) { return kll.Quantile(q); });
  }
  EXPECT_LT(err_large, err_small);
  EXPECT_LT(err_large, 0.02);
}

TEST(KllTest, AllDistributionsBounded) {
  for (auto dist :
       {ValueDistribution::kUniform, ValueDistribution::kGaussian,
        ValueDistribution::kLogNormal, ValueDistribution::kSorted,
        ValueDistribution::kReverse, ValueDistribution::kZipfValues}) {
    KllSketch kll(200, 2);
    auto data = GenerateValues(dist, 50000, 11);
    for (double v : data) kll.Update(v);
    const double err =
        MaxRankError(data, [&](double q) { return kll.Quantile(q); });
    EXPECT_LT(err, 0.03) << "distribution " << static_cast<int>(dist);
  }
}

TEST(KllTest, SpaceIsSublinear) {
  KllSketch kll(200, 3);
  for (double v : GenerateValues(ValueDistribution::kUniform, 1000000, 12)) {
    kll.Update(v);
  }
  EXPECT_LT(kll.NumRetained(), 3000u);
  EXPECT_EQ(kll.Count(), 1000000u);
}

TEST(KllTest, MergeMatchesSingleStreamError) {
  auto data = GenerateValues(ValueDistribution::kLogNormal, 100000, 13);
  KllSketch whole(200, 4), a(200, 5), b(200, 6);
  for (size_t i = 0; i < data.size(); ++i) {
    whole.Update(data[i]);
    (i % 2 == 0 ? a : b).Update(data[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Count(), whole.Count());
  const double merged_err =
      MaxRankError(data, [&](double q) { return a.Quantile(q); });
  EXPECT_LT(merged_err, 0.03);
}

TEST(KllTest, ManyWayMergeStaysBounded) {
  auto data = GenerateValues(ValueDistribution::kGaussian, 64000, 14);
  std::vector<KllSketch> shards;
  for (int shard = 0; shard < 64; ++shard) shards.emplace_back(200, 20 + shard);
  for (size_t i = 0; i < data.size(); ++i) shards[i % 64].Update(data[i]);
  KllSketch merged = shards[0];
  for (int shard = 1; shard < 64; ++shard) {
    ASSERT_TRUE(merged.Merge(shards[shard]).ok());
  }
  EXPECT_EQ(merged.Count(), data.size());
  const double err =
      MaxRankError(data, [&](double q) { return merged.Quantile(q); });
  EXPECT_LT(err, 0.04);
}

TEST(KllTest, CdfIsMonotone) {
  KllSketch kll(200, 15);
  for (double v : GenerateValues(ValueDistribution::kGaussian, 20000, 16)) {
    kll.Update(v);
  }
  const std::vector<double> splits = {-3, -2, -1, 0, 1, 2, 3};
  const auto cdf = kll.Cdf(splits);
  for (size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_NEAR(cdf[3], 0.5, 0.03);  // CDF at 0 for N(0,1).
}

TEST(KllTest, SerializeRoundTrip) {
  KllSketch kll(128, 17);
  for (double v : GenerateValues(ValueDistribution::kUniform, 30000, 18)) {
    kll.Update(v);
  }
  auto r = KllSketch::Deserialize(kll.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Count(), kll.Count());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(r.value().Quantile(q), kll.Quantile(q));
  }
}

TEST(KllTest, TabulatedCapacityMatchesPow) {
  // The process-wide table must reproduce the per-call std::pow expression
  // it replaced exactly, or compaction schedules (and bytes) would move.
  for (uint32_t k : {8u, 200u, 256u, 312u, 65535u}) {
    for (int depth = 0; depth <= 64; ++depth) {
      const double cap = static_cast<double>(k) * std::pow(2.0 / 3.0, depth);
      EXPECT_EQ(KllSketch::CapacityForDepth(k, depth),
                std::max<size_t>(8, static_cast<size_t>(std::ceil(cap))))
          << "k=" << k << " depth=" << depth;
    }
  }
}

TEST(KllTest, MergeOverflowIsRefused) {
  // A hostile image may claim any count. A merge whose total would wrap is
  // refused with kOutOfRange before any level moves, through Merge and
  // MergeFromView alike.
  ByteWriter w;
  w.PutU32(200);                                           // k.
  w.PutU64(std::numeric_limits<uint64_t>::max() / 2 + 1);  // Count.
  w.PutVarint(2);                                          // Levels.
  w.PutVarint(1);
  w.PutDouble(1.5);
  w.PutVarint(1);
  w.PutDouble(2.5);
  const std::vector<uint8_t> image =
      WrapEnvelope(SketchTypeId::kKll, std::move(w).TakeBytes());
  Result<KllSketch> acc = KllSketch::Deserialize(image);
  ASSERT_TRUE(acc.ok());
  const KllSketch peer = acc.value();
  EXPECT_EQ(acc.value().Merge(peer).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(acc.value().Serialize(), image);
  Result<View<KllSketch>> view = View<KllSketch>::Wrap(image);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(MergeFromView(acc.value(), view.value()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(acc.value().Serialize(), image);
}

// ---------------------------------------------------------------- QDigest

TEST(QDigestTest, RankErrorBounded) {
  QDigest qd(16, 256);
  UniformItemGenerator gen(1 << 16, 19);
  std::vector<double> data;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t x = gen.Next();
    qd.Update(x);
    data.push_back(static_cast<double>(x));
  }
  const double err = MaxRankError(
      data, [&](double q) { return static_cast<double>(qd.Quantile(q)); });
  // q-digest error ~ log(U)/k = 16/256 = 0.0625; allow slack.
  EXPECT_LT(err, 0.09);
}

TEST(QDigestTest, SpaceBounded) {
  QDigest qd(16, 128);
  UniformItemGenerator gen(1 << 16, 20);
  for (int i = 0; i < 200000; ++i) qd.Update(gen.Next());
  // Node bound 3k.
  EXPECT_LE(qd.NumNodes(), 3 * 128u + 64);
}

TEST(QDigestTest, WeightedUpdates) {
  QDigest qd(8, 64);
  qd.Update(10, 100);
  qd.Update(200, 100);
  EXPECT_EQ(qd.Count(), 200u);
  const uint64_t median = qd.Quantile(0.5);
  EXPECT_LE(median, 200u);
  EXPECT_GE(qd.Quantile(0.9), 10u);
}

TEST(QDigestTest, MergeMatchesCombined) {
  QDigest a(12, 128), b(12, 128), whole(12, 128);
  UniformItemGenerator gen(1 << 12, 21);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t x = gen.Next();
    data.push_back(static_cast<double>(x));
    whole.Update(x);
    (i % 2 == 0 ? a : b).Update(x);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Count(), whole.Count());
  const double err = MaxRankError(
      data, [&](double q) { return static_cast<double>(a.Quantile(q)); });
  EXPECT_LT(err, 0.1);
}

TEST(QDigestTest, SerializeRoundTrip) {
  QDigest qd(10, 64);
  UniformItemGenerator gen(1 << 10, 22);
  for (int i = 0; i < 10000; ++i) qd.Update(gen.Next());
  auto r = QDigest::Deserialize(qd.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Count(), qd.Count());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(r.value().Quantile(q), qd.Quantile(q));
  }
}

TEST(QDigestTest, MergeOverflowIsRefused) {
  // Hostile images: one whose total doubles past 2^64, one whose total is
  // small but whose shared node count wraps. Both merges are refused with
  // kOutOfRange and leave the accumulator's bytes as they were.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const auto& [count, node_count] :
       {std::pair{kMax / 2 + 1, kMax / 2 + 1}, std::pair{uint64_t{0}, kMax}}) {
    ByteWriter w;
    w.PutU8(10);           // Universe bits.
    w.PutU64(64);          // Compression.
    w.PutU64(count);
    w.PutVarint(1);        // Nodes.
    w.PutVarint(1 << 10);  // The leaf of value 0.
    w.PutVarint(node_count);
    const std::vector<uint8_t> image =
        WrapEnvelope(SketchTypeId::kQDigest, std::move(w).TakeBytes());
    Result<QDigest> acc = QDigest::Deserialize(image);
    ASSERT_TRUE(acc.ok());
    const QDigest peer = acc.value();
    EXPECT_EQ(acc.value().Merge(peer).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(acc.value().Serialize(), image);
  }
}

TEST(QDigestTest, DeserializeRejectsBadNodeId) {
  QDigest qd(10, 64);
  qd.Update(5);
  auto bytes = qd.Serialize();
  // Payload: 1 bits + 8 compression + 8 count + 1 node count; the next
  // varint is the node id. Corrupt it to zero (invalid) and re-wrap so the
  // envelope checksum is valid and the payload validation path is hit.
  Result<EnvelopeView> view = ParseEnvelope(bytes);
  ASSERT_TRUE(view.ok());
  std::vector<uint8_t> payload(view.value().payload,
                               view.value().payload + view.value().payload_size);
  payload[18] = 0;
  auto corrupt = WrapEnvelope(SketchTypeId::kQDigest, std::move(payload));
  EXPECT_FALSE(QDigest::Deserialize(corrupt).ok());
}

// ---------------------------------------------------------------- TDigest

TEST(TDigestTest, MidQuantilesAccurate) {
  TDigest td(100);
  auto data = GenerateValues(ValueDistribution::kGaussian, 100000, 23);
  for (double v : data) td.Update(v);
  std::sort(data.begin(), data.end());
  EXPECT_NEAR(td.Quantile(0.5), data[50000], 0.05);
  EXPECT_NEAR(td.Quantile(0.25), data[25000], 0.05);
}

TEST(TDigestTest, TailQuantilesVeryAccurate) {
  TDigest td(100);
  auto data = GenerateValues(ValueDistribution::kLogNormal, 200000, 24);
  for (double v : data) td.Update(v);
  std::sort(data.begin(), data.end());
  // Relative rank error at extreme quantiles should be tiny.
  const double n = static_cast<double>(data.size());
  for (double q : {0.001, 0.01, 0.99, 0.999}) {
    const double v = td.Quantile(q);
    const double est_rank = static_cast<double>(ExactRank(data, v));
    EXPECT_LT(std::abs(est_rank - q * n) / n, 0.003) << "q = " << q;
  }
}

TEST(TDigestTest, MinMaxExact) {
  TDigest td(50);
  auto data = GenerateValues(ValueDistribution::kUniform, 10000, 25);
  for (double v : data) td.Update(v);
  std::sort(data.begin(), data.end());
  EXPECT_DOUBLE_EQ(td.Min(), data.front());
  EXPECT_DOUBLE_EQ(td.Max(), data.back());
  EXPECT_NEAR(td.Quantile(0.0), data.front(), 1e-9);
  EXPECT_NEAR(td.Quantile(1.0), data.back(), 1e-6);
}

TEST(TDigestTest, CentroidCountBounded) {
  TDigest td(100);
  for (double v : GenerateValues(ValueDistribution::kGaussian, 500000, 26)) {
    td.Update(v);
  }
  EXPECT_LE(td.NumCentroids(), 220u);  // ~2*delta.
}

TEST(TDigestTest, CdfInverseConsistency) {
  TDigest td(200);
  for (double v : GenerateValues(ValueDistribution::kUniform, 100000, 27)) {
    td.Update(v);
  }
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double v = td.Quantile(q);
    EXPECT_NEAR(td.Cdf(v), q, 0.02);
  }
  EXPECT_DOUBLE_EQ(td.Cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(td.Cdf(2.0), 1.0);
}

TEST(TDigestTest, WeightedUpdates) {
  TDigest td(100);
  td.Update(0.0, 900);
  td.Update(100.0, 100);
  EXPECT_EQ(td.Count(), 1000u);
  EXPECT_LE(td.Quantile(0.5), 10.0);  // Interpolation reaches 10 exactly.
  EXPECT_GT(td.Quantile(0.95), 50.0);
}

TEST(TDigestTest, MergePreservesAccuracy) {
  auto data = GenerateValues(ValueDistribution::kGaussian, 100000, 28);
  TDigest a(100), b(100);
  for (size_t i = 0; i < data.size(); ++i) {
    (i % 2 == 0 ? a : b).Update(data[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Count(), data.size());
  std::sort(data.begin(), data.end());
  EXPECT_NEAR(a.Quantile(0.5), data[50000], 0.07);
}

TEST(TDigestTest, SerializeRoundTrip) {
  TDigest td(100);
  for (double v : GenerateValues(ValueDistribution::kLogNormal, 20000, 29)) {
    td.Update(v);
  }
  auto r = TDigest::Deserialize(td.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Count(), td.Count());
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(r.value().Quantile(q), td.Quantile(q));
  }
}

// -------------------------------------------------------------------- MRL

TEST(MrlTest, RankErrorBounded) {
  for (auto dist : {ValueDistribution::kUniform, ValueDistribution::kSorted,
                    ValueDistribution::kLogNormal}) {
    MrlSketch mrl(10, 500);
    auto data = GenerateValues(dist, 100000, 41);
    for (double v : data) mrl.Update(v);
    const double err =
        MaxRankError(data, [&](double q) { return mrl.Quantile(q); });
    EXPECT_LT(err, 0.03) << "distribution " << static_cast<int>(dist);
  }
}

TEST(MrlTest, ForAccuracyMeetsTarget) {
  auto mrl = MrlSketch::ForAccuracy(0.01, 200000);
  auto data = GenerateValues(ValueDistribution::kGaussian, 200000, 42);
  for (double v : data) mrl.Update(v);
  const double err =
      MaxRankError(data, [&](double q) { return mrl.Quantile(q); });
  EXPECT_LT(err, 0.015);
}

TEST(MrlTest, SpaceIsSublinear) {
  MrlSketch mrl(10, 500);
  for (double v : GenerateValues(ValueDistribution::kUniform, 500000, 43)) {
    mrl.Update(v);
  }
  EXPECT_LE(mrl.NumRetained(), 10u * 500u + 500u);
  EXPECT_EQ(mrl.Count(), 500000u);
}

TEST(MrlTest, RankOfKnownData) {
  MrlSketch mrl(8, 200);
  for (int i = 0; i < 10000; ++i) mrl.Update(static_cast<double>(i));
  EXPECT_NEAR(static_cast<double>(mrl.Rank(5000.0)), 5000.0, 300.0);
}

TEST(MrlTest, MergePreservesAccuracy) {
  MrlSketch a(10, 400), b(10, 400);
  auto data = GenerateValues(ValueDistribution::kLogNormal, 80000, 44);
  for (size_t i = 0; i < data.size(); ++i) {
    (i % 2 == 0 ? a : b).Update(data[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Count(), data.size());
  const double err =
      MaxRankError(data, [&](double q) { return a.Quantile(q); });
  EXPECT_LT(err, 0.04);
}

TEST(MrlTest, MergeRejectsShapeMismatch) {
  MrlSketch a(8, 100), b(8, 200);
  EXPECT_FALSE(a.Merge(b).ok());
}

// -------------------------------------------------------------------- REQ

TEST(ReqTest, HighQuantilesNearExact) {
  // The PODS 2021 claim: relative rank error at high quantiles, i.e. the
  // error is small relative to (1-q)*n, not relative to n.
  ReqSketch req(32, 1);
  auto data = GenerateValues(ValueDistribution::kLogNormal, 200000, 51);
  for (double v : data) req.Update(v);
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  for (double q : {0.99, 0.999, 0.9999}) {
    const double v = req.Quantile(q);
    const double lo = static_cast<double>(
        std::lower_bound(data.begin(), data.end(), v) - data.begin());
    const double hi = static_cast<double>(
        std::upper_bound(data.begin(), data.end(), v) - data.begin());
    const double target = q * n;
    double err = 0;
    if (target < lo) err = lo - target;
    if (target > hi) err = target - hi;
    // Error bounded by a modest fraction of the tail mass (1-q)*n.
    EXPECT_LE(err, 0.25 * (1.0 - q) * n + 2.0) << "q = " << q;
  }
}

TEST(ReqTest, BeatsKllOnExtremeTailAtAnySpace) {
  const size_t n = 500000;
  auto data = GenerateValues(ValueDistribution::kGaussian, n, 52);
  ReqSketch req(32, 2);
  KllSketch kll(200, 3);
  for (double v : data) {
    req.Update(v);
    kll.Update(v);
  }
  std::sort(data.begin(), data.end());
  auto rank_err = [&](double v, double q) {
    const double lo = static_cast<double>(
        std::lower_bound(data.begin(), data.end(), v) - data.begin());
    const double hi = static_cast<double>(
        std::upper_bound(data.begin(), data.end(), v) - data.begin());
    const double target = q * static_cast<double>(n);
    if (target < lo) return lo - target;
    if (target > hi) return target - hi;
    return 0.0;
  };
  const double q = 0.9995;
  EXPECT_LT(rank_err(req.Quantile(q), q), rank_err(kll.Quantile(q), q));
}

TEST(ReqTest, MidQuantilesStillReasonable) {
  ReqSketch req(32, 4);
  auto data = GenerateValues(ValueDistribution::kUniform, 100000, 53);
  for (double v : data) req.Update(v);
  const double err =
      MaxRankError(data, [&](double q) { return req.Quantile(q); });
  EXPECT_LT(err, 0.02);
}

TEST(ReqTest, RankQueryConsistent) {
  ReqSketch req(16, 5);
  for (int i = 0; i < 100000; ++i) req.Update(static_cast<double>(i));
  EXPECT_NEAR(static_cast<double>(req.Rank(99990.0)), 99991.0, 10.0);
  EXPECT_NEAR(static_cast<double>(req.Rank(50000.0)), 50001.0, 2500.0);
}

TEST(ReqTest, SpaceGrowsSlowly) {
  ReqSketch req(32, 6);
  for (double v : GenerateValues(ValueDistribution::kGaussian, 1000000, 54)) {
    req.Update(v);
  }
  EXPECT_LT(req.NumRetained(), 20000u);  // ~O(k log^1.5 n) <<< n.
  EXPECT_EQ(req.Count(), 1000000u);
}

TEST(ReqTest, MergePreservesTailAccuracy) {
  ReqSketch a(32, 7), b(32, 8);
  auto data = GenerateValues(ValueDistribution::kLogNormal, 200000, 55);
  for (size_t i = 0; i < data.size(); ++i) {
    (i % 2 == 0 ? a : b).Update(data[i]);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Count(), data.size());
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  const double q = 0.999;
  const double v = a.Quantile(q);
  const double lo = static_cast<double>(
      std::lower_bound(data.begin(), data.end(), v) - data.begin());
  const double hi = static_cast<double>(
      std::upper_bound(data.begin(), data.end(), v) - data.begin());
  double err = 0;
  if (q * n < lo) err = lo - q * n;
  if (q * n > hi) err = q * n - hi;
  EXPECT_LE(err, 0.5 * (1.0 - q) * n + 2.0);
}

TEST(ReqTest, MergeRejectsKMismatch) {
  ReqSketch a(16, 0), b(32, 0);
  EXPECT_FALSE(a.Merge(b).ok());
  ReqSketch hra(16, 0, true), lra(16, 0, false);
  EXPECT_FALSE(hra.Merge(lra).ok());
}

TEST(ReqTest, MergeOverflowIsRefused) {
  // The REQ twin of the hostile-image merge tests: a count no stream could
  // reach, forged through the test peer since REQ has no wire image. The
  // wrapping merge is refused with kOutOfRange and moves nothing.
  ReqSketch req(16, 3);
  for (int i = 0; i < 100; ++i) req.Update(i);
  ReqSketchTestPeer::SetCount(req,
                              std::numeric_limits<uint64_t>::max() / 2 + 1);
  const ReqSketch peer = req;
  const size_t retained = req.NumRetained();
  const int levels = req.NumLevels();
  EXPECT_EQ(req.Merge(peer).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(req.Count(), peer.Count());
  EXPECT_EQ(req.NumRetained(), retained);
  EXPECT_EQ(req.NumLevels(), levels);
  EXPECT_EQ(req.Rank(50), peer.Rank(50));
}

TEST(ReqTest, LowRankAccuracyProtectsLowQuantiles) {
  auto data = GenerateValues(ValueDistribution::kLogNormal, 200000, 56);
  ReqSketch lra(32, 9, /*high_rank_accuracy=*/false);
  for (double v : data) lra.Update(v);
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  for (double q : {0.0001, 0.001, 0.01}) {
    const double v = lra.Quantile(q);
    const double lo = static_cast<double>(
        std::lower_bound(data.begin(), data.end(), v) - data.begin());
    const double hi = static_cast<double>(
        std::upper_bound(data.begin(), data.end(), v) - data.begin());
    const double target = q * n;
    double err = 0;
    if (target < lo) err = lo - target;
    if (target > hi) err = target - hi;
    // Error bounded relative to the LOW-tail mass q*n.
    EXPECT_LE(err, 0.25 * q * n + 2.0) << "q = " << q;
  }
}

// ------------------------------------------------------- GK serialization

TEST(GreenwaldKhannaTest, SerializeRoundTrip) {
  GreenwaldKhanna gk(0.01);
  for (double v : GenerateValues(ValueDistribution::kLogNormal, 30000, 45)) {
    gk.Update(v);
  }
  auto r = GreenwaldKhanna::Deserialize(gk.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Count(), gk.Count());
  EXPECT_EQ(r.value().NumTuples(), gk.NumTuples());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(r.value().Quantile(q), gk.Quantile(q));
  }
}

TEST(GreenwaldKhannaTest, DeserializeGarbageFails) {
  EXPECT_FALSE(GreenwaldKhanna::Deserialize(std::vector<uint8_t>{9, 9, 9}).ok());
}

// -------------------------------------- Cross-sketch comparison (E4 shape)

TEST(QuantileComparisonTest, KllBeatsGkPerByte) {
  // KLL's headline: better rank error per byte of summary than GK.
  auto data = GenerateValues(ValueDistribution::kLogNormal, 200000, 30);
  GreenwaldKhanna gk(0.01);
  KllSketch kll(200, 31);
  for (double v : data) {
    gk.Update(v);
    kll.Update(v);
  }
  const double gk_err =
      MaxRankError(data, [&](double q) { return gk.Quantile(q); });
  const double kll_err =
      MaxRankError(data, [&](double q) { return kll.Quantile(q); });
  const double gk_bytes = static_cast<double>(gk.MemoryBytes());
  const double kll_bytes = static_cast<double>(kll.MemoryBytes());
  // Error x space product: KLL should win.
  EXPECT_LT(kll_err * kll_bytes, gk_err * gk_bytes);
}

TEST(QuantileComparisonTest, TDigestBestAtTails) {
  auto data = GenerateValues(ValueDistribution::kLogNormal, 100000, 32);
  TDigest td(100);
  KllSketch kll(200, 33);
  for (double v : data) {
    td.Update(v);
    kll.Update(v);
  }
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  double td_tail_err = 0, kll_tail_err = 0;
  for (double q : {0.001, 0.999}) {
    td_tail_err +=
        std::abs(static_cast<double>(ExactRank(data, td.Quantile(q))) -
                 q * n) /
        n;
    kll_tail_err +=
        std::abs(static_cast<double>(ExactRank(data, kll.Quantile(q))) -
                 q * n) /
        n;
  }
  EXPECT_LE(td_tail_err, kll_tail_err + 0.001);
}

// Parameterized sweep: every sketch at every distribution stays bounded.
struct QuantileCase {
  int sketch;  // 0 = GK, 1 = KLL, 2 = t-digest.
  ValueDistribution dist;
};

class QuantileSweep : public ::testing::TestWithParam<QuantileCase> {};

TEST_P(QuantileSweep, RankErrorBounded) {
  const QuantileCase c = GetParam();
  auto data = GenerateValues(c.dist, 50000, 34);
  double err = 0;
  if (c.sketch == 0) {
    GreenwaldKhanna gk(0.01);
    for (double v : data) gk.Update(v);
    err = MaxRankError(data, [&](double q) { return gk.Quantile(q); });
  } else if (c.sketch == 1) {
    KllSketch kll(200, 35);
    for (double v : data) kll.Update(v);
    err = MaxRankError(data, [&](double q) { return kll.Quantile(q); });
  } else {
    TDigest td(100);
    for (double v : data) td.Update(v);
    err = MaxRankError(data, [&](double q) { return td.Quantile(q); });
  }
  EXPECT_LT(err, 0.035) << "sketch " << c.sketch << " dist "
                        << static_cast<int>(c.dist);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantileSweep,
    ::testing::Values(
        QuantileCase{0, ValueDistribution::kUniform},
        QuantileCase{0, ValueDistribution::kLogNormal},
        QuantileCase{0, ValueDistribution::kSorted},
        QuantileCase{1, ValueDistribution::kUniform},
        QuantileCase{1, ValueDistribution::kLogNormal},
        QuantileCase{1, ValueDistribution::kSorted},
        QuantileCase{1, ValueDistribution::kReverse},
        QuantileCase{2, ValueDistribution::kUniform},
        QuantileCase{2, ValueDistribution::kGaussian},
        QuantileCase{2, ValueDistribution::kSorted}));

}  // namespace
}  // namespace gems
