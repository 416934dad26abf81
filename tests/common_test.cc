#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/bytes.h"
#include "common/hugepage.h"
#include "common/layout.h"
#include "common/numeric.h"
#include "common/random.h"
#include "common/status.h"
#include "common/flat_map.h"

namespace gems {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "k must be positive");
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, WorksWithMoveOnlyValueAccess) {
  Result<std::string> r(std::string(1000, 'x'));
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v.size(), 1000u);
}

// ------------------------------------------------------------------ Bits

TEST(BitsTest, CountLeadingZeros) {
  EXPECT_EQ(CountLeadingZeros64(0), 64);
  EXPECT_EQ(CountLeadingZeros64(1), 63);
  EXPECT_EQ(CountLeadingZeros64(uint64_t{1} << 63), 0);
  EXPECT_EQ(CountLeadingZeros64(0xFF), 56);
}

TEST(BitsTest, CountTrailingZeros) {
  EXPECT_EQ(CountTrailingZeros64(0), 64);
  EXPECT_EQ(CountTrailingZeros64(1), 0);
  EXPECT_EQ(CountTrailingZeros64(uint64_t{1} << 40), 40);
}

TEST(BitsTest, PowersOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 50));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

TEST(BitsTest, Logs) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(uint64_t{1} << 62), 62);
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
}

TEST(BitsTest, RankOfLeftmostOne) {
  // Within a 4-bit window: 0b1000 -> 1, 0b0100 -> 2, 0b0001 -> 4, 0 -> 5.
  EXPECT_EQ(RankOfLeftmostOne(0b1000, 4), 1);
  EXPECT_EQ(RankOfLeftmostOne(0b0100, 4), 2);
  EXPECT_EQ(RankOfLeftmostOne(0b0010, 4), 3);
  EXPECT_EQ(RankOfLeftmostOne(0b0001, 4), 4);
  EXPECT_EQ(RankOfLeftmostOne(0, 4), 5);
  // High bits outside the window are masked off.
  EXPECT_EQ(RankOfLeftmostOne(0b110000, 4), 5);
  EXPECT_EQ(RankOfLeftmostOne(~uint64_t{0}, 64), 1);
}

// ----------------------------------------------------------------- Bytes

TEST(BytesTest, RoundTripFixedWidth) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-42);
  w.PutDouble(3.14159);

  ByteReader r(w.bytes());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU16(&u16).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (uint64_t{1} << 35) - 1,
                            uint64_t{1} << 35,
                            std::numeric_limits<uint64_t>::max()};
  ByteWriter w;
  for (uint64_t v : cases) w.PutVarint(v);
  ByteReader r(w.bytes());
  for (uint64_t expected : cases) {
    uint64_t v;
    ASSERT_TRUE(r.GetVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintSmallValuesUseOneByte) {
  ByteWriter w;
  w.PutVarint(127);
  EXPECT_EQ(w.size(), 1u);
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'z'));
  ByteReader r(w.bytes());
  std::string a, b, c;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  ASSERT_TRUE(r.GetString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'z'));
}

TEST(BytesTest, TruncatedReadsFailWithCorruption) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  uint64_t v;
  Status s = r.GetU64(&v);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedVarintFails) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // Continuation never ends.
  ByteReader r(bytes);
  uint64_t v;
  EXPECT_EQ(r.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(BytesTest, OverlongVarintFails) {
  std::vector<uint8_t> bytes(11, 0x80);
  bytes.push_back(0x01);
  ByteReader r(bytes);
  uint64_t v;
  EXPECT_EQ(r.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(BytesTest, LengthPrefixLyingAboutSizeFails) {
  ByteWriter w;
  w.PutVarint(100);  // Claims 100 bytes follow but none do.
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kCorruption);
}

// ----------------------------------------------------------------- Random

TEST(RandomTest, SplitMixIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, RngIsDeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.NextU64();
    EXPECT_EQ(x, b.NextU64());
    if (x != c.NextU64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextBoundedRespectsBound) {
  Rng rng(2);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RandomTest, NextBoundedIsRoughlyUniform) {
  Rng rng(3);
  const uint64_t bound = 10;
  const int n = 100000;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i) counts[rng.NextBounded(bound)]++;
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(counts[b], n / static_cast<int>(bound), 600);
  }
}

TEST(RandomTest, GaussianMomentsMatch) {
  Rng rng(4);
  const int n = 200000;
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.NextGaussian();
  EXPECT_NEAR(Mean(xs), 0.0, 0.02);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.02);
}

TEST(RandomTest, ExponentialMeanIsOne) {
  Rng rng(5);
  const int n = 200000;
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.NextExponential();
  EXPECT_NEAR(Mean(xs), 1.0, 0.02);
}

TEST(RandomTest, BernoulliMatchesProbability) {
  Rng rng(6);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RandomTest, GeometricMeanMatches) {
  Rng rng(7);
  const double p = 0.25;
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.NextGeometric(p));
  // Mean of failures-before-success geometric is (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RandomTest, SignIsBalanced) {
  Rng rng(8);
  int sum = 0;
  for (int i = 0; i < 100000; ++i) sum += rng.NextSign();
  EXPECT_LT(std::abs(sum), 1500);
}

// ---------------------------------------------------------------- Numeric

TEST(NumericTest, KahanSumStable) {
  KahanSum sum;
  sum.Add(1e16);
  for (int i = 0; i < 10000; ++i) sum.Add(1.0);
  sum.Add(-1e16);
  EXPECT_DOUBLE_EQ(sum.sum(), 10000.0);
}

TEST(NumericTest, InverseNormalCdfKnownValues) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.841344746), 1.0, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.999), 3.090232306, 1e-6);
}

TEST(NumericTest, InverseNormalCdfIsMonotone) {
  double prev = -1e9;
  for (double p = 0.001; p < 1.0; p += 0.001) {
    double x = InverseNormalCdf(p);
    EXPECT_GT(x, prev);
    prev = x;
  }
}

TEST(NumericTest, NormalQuantileForConfidence) {
  EXPECT_NEAR(NormalQuantileForConfidence(0.95), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantileForConfidence(0.99), 2.575829304, 1e-6);
}

TEST(NumericTest, DescriptiveStats) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_NEAR(StdDev(xs), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(Median(xs), 3.0);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_NEAR(Rms({3, 4}), std::sqrt(12.5), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(NumericTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90, 100), 0.1);
  // Small truth values are floored at 1 to avoid division blowups.
  EXPECT_DOUBLE_EQ(RelativeError(0.5, 0.0), 0.5);
}

// -------------------------------------------------------------- HugePage

TEST(HugePageTest, SmallAllocationsTakeAlignedFallback) {
  const HugePageStats before = GetHugePageStats();
  {
    HugeVector<uint64_t> v(1024, 7);  // 8 KiB — far below the threshold.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 64, 0u)
        << "small allocations must still be cache-line aligned";
    EXPECT_EQ(v[0], 7u);
    EXPECT_EQ(v[1023], 7u);
  }
  const HugePageStats after = GetHugePageStats();
  EXPECT_GT(after.fallback_small, before.fallback_small);
  // A small allocation never consumes a hugepage verdict.
  EXPECT_EQ(after.granted + after.denied, before.granted + before.denied);
}

TEST(HugePageTest, LargeAllocationsRouteThroughMmap) {
  const HugePageStats before = GetHugePageStats();
  {
    // 4 MiB — above the 2 MiB threshold, so on Linux this takes the
    // mmap + MADV_HUGEPAGE path (granted or denied, but always counted);
    // elsewhere it falls back and still works.
    HugeVector<uint64_t> v(size_t{1} << 19, 3);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 64, 0u);
    v[0] = 1;
    v[v.size() - 1] = 2;
    EXPECT_EQ(v[0], 1u);
    EXPECT_EQ(v[v.size() - 1], 2u);
  }
  const HugePageStats after = GetHugePageStats();
  if (HugePagesEnabled()) {
    EXPECT_GT(after.granted + after.denied, before.granted + before.denied);
  } else {
    EXPECT_GT(after.fallback_small, before.fallback_small);
  }
}

TEST(HugePageTest, VectorSemanticsSurviveGrowthAcrossThreshold) {
  // Growing from tiny to huge crosses the allocator's routing boundary;
  // the value contents must ride across intact.
  HugeVector<uint64_t> v;
  for (uint64_t i = 0; i < (uint64_t{1} << 19); ++i) v.push_back(i);
  EXPECT_EQ(v[12345], 12345u);
  EXPECT_EQ(v.back(), (uint64_t{1} << 19) - 1);
  HugeVector<uint64_t> copy = v;
  EXPECT_EQ(copy, v);
}

TEST(HugePageTest, LayoutJsonMentionsEveryProvenanceField) {
  const std::string json = LayoutJson();
  EXPECT_NE(json.find("\"hugepages_enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"hugepage_granted\""), std::string::npos);
  EXPECT_NE(json.find("\"hugepage_denied\""), std::string::npos);
  EXPECT_NE(json.find("\"hugepage_fallback_small\""), std::string::npos);
}

TEST(SketchLayoutTest, NamesAreStable) {
  EXPECT_STREQ(LayoutName(SketchLayout::kFlat), "flat");
  EXPECT_STREQ(LayoutName(SketchLayout::kBlocked), "blocked");
}

TEST(FlatMap64Test, InsertFindAndGrow) {
  FlatMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
  // Push through several growth rounds; every key must stay findable with
  // its own value.
  for (uint64_t k = 0; k < 1000; ++k) {
    map[k * 0x9E3779B97F4A7C15ULL] = static_cast<int>(k);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    const int* value = map.Find(k * 0x9E3779B97F4A7C15ULL);
    ASSERT_NE(value, nullptr) << k;
    EXPECT_EQ(*value, static_cast<int>(k));
  }
  // operator[] on an existing key (0, inserted by the k=0 iteration)
  // returns the same entry, not a new one.
  map[0] = 7;
  map[0] += 1;
  EXPECT_EQ(map[0], 8);
  EXPECT_EQ(map.size(), 1000u);
}

TEST(FlatMap64Test, ForEachVisitsEveryEntryOnceAndClearResets) {
  FlatMap64<uint64_t> map;
  for (uint64_t k = 1; k <= 300; ++k) map[k] = k * 2;
  uint64_t visited = 0, key_sum = 0;
  map.ForEach([&](uint64_t key, uint64_t& value) {
    ++visited;
    key_sum += key;
    EXPECT_EQ(value, key * 2);
  });
  EXPECT_EQ(visited, 300u);
  EXPECT_EQ(key_sum, 300u * 301u / 2);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(1), nullptr);
  map[5] = 9;  // Usable again after Clear.
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap64Test, ZeroKeyAndCollidingKeysCoexist) {
  // Key 0 must behave like any other key (emptiness is tracked out of
  // band, not via a sentinel key).
  FlatMap64<int> map;
  map[0] = 11;
  // Keys crafted to collide in small tables exercise linear probing.
  for (uint64_t k = 0; k < 64; ++k) map[k << 32] = static_cast<int>(k);
  EXPECT_EQ(*map.Find(0), 0);  // Overwritten by the k=0 iteration.
  for (uint64_t k = 1; k < 64; ++k) {
    ASSERT_NE(map.Find(k << 32), nullptr) << k;
    EXPECT_EQ(*map.Find(k << 32), static_cast<int>(k));
  }
}

}  // namespace
}  // namespace gems
