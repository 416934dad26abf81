#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimate.h"
#include "core/params.h"
#include "core/summary.h"
#include "core/wire.h"

namespace gems {
namespace {

TEST(EstimateTest, FromStdErrorSymmetric) {
  Estimate e = EstimateFromStdError(100.0, 10.0, 0.95);
  EXPECT_DOUBLE_EQ(e.value, 100.0);
  EXPECT_NEAR(e.lower, 100.0 - 19.6, 0.05);
  EXPECT_NEAR(e.upper, 100.0 + 19.6, 0.05);
  EXPECT_DOUBLE_EQ(e.confidence, 0.95);
}

TEST(EstimateTest, CoversChecksInterval) {
  Estimate e = EstimateFromStdError(50.0, 5.0, 0.95);
  EXPECT_TRUE(e.Covers(50.0));
  EXPECT_TRUE(e.Covers(45.0));
  EXPECT_FALSE(e.Covers(0.0));
  EXPECT_FALSE(e.Covers(100.0));
}

TEST(EstimateTest, HigherConfidenceWidensInterval) {
  Estimate narrow = EstimateFromStdError(0.0, 1.0, 0.90);
  Estimate wide = EstimateFromStdError(0.0, 1.0, 0.99);
  EXPECT_LT(narrow.upper, wide.upper);
  EXPECT_GT(narrow.lower, wide.lower);
}

TEST(EstimateTest, ToStringMentionsBounds) {
  Estimate e = EstimateFromStdError(10.0, 1.0, 0.95);
  const std::string s = e.ToString();
  EXPECT_NE(s.find("10"), std::string::npos);
  EXPECT_NE(s.find("95%"), std::string::npos);
}

TEST(WireTest, RoundTrip) {
  ByteWriter w;
  w.PutU64(777);
  std::vector<uint8_t> bytes =
      WrapEnvelope(SketchTypeId::kHyperLogLog, std::move(w).TakeBytes());
  EXPECT_EQ(bytes.size(), kWireHeaderSize + 8);
  Result<ByteReader> r = OpenEnvelope(SketchTypeId::kHyperLogLog, bytes);
  ASSERT_TRUE(r.ok());
  uint64_t payload;
  ASSERT_TRUE(r.value().GetU64(&payload).ok());
  EXPECT_EQ(payload, 777u);
}

TEST(WireTest, EnvelopeHeaderFieldsAreLittleEndian) {
  const std::vector<uint8_t> payload = {0xAA, 0xBB, 0xCC};
  const std::vector<uint8_t> bytes =
      WrapEnvelope(SketchTypeId::kKll, payload);
  ASSERT_EQ(bytes.size(), kWireHeaderSize + payload.size());
  const std::vector<uint8_t> expected_prefix = {
      'G',  'E',  'M',  'S',   // Magic.
      17,   0x00,              // Type id: kKll.
      0x01,                    // Version.
      0x00,                    // Flags.
      0x03, 0x00, 0x00, 0x00,  // Payload length.
  };
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.begin() + 12),
            expected_prefix);
  Result<EnvelopeView> view = ParseEnvelope(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().payload_size, payload.size());
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin() + kWireHeaderSize, bytes.end()),
            payload);
}

TEST(WireTest, EnvelopeBuilderMatchesOverWriterAndSink) {
  const auto build = [](ByteSink& sink) {
    EnvelopeBuilder env(sink, SketchTypeId::kCountSketch);
    sink.PutU32(2);
    sink.PutI64s(std::vector<int64_t>{-3, 4});
    sink.PutDoubles(std::vector<double>{0.5});
  };
  ByteWriter writer;
  build(writer);
  std::vector<uint8_t> arena = {1, 2, 3};  // Envelopes land after this.
  ByteSink sink(&arena);
  build(sink);
  EXPECT_EQ(std::vector<uint8_t>(arena.begin() + 3, arena.end()),
            writer.bytes());
  // WrapEnvelope over the same payload yields the same envelope too.
  ByteWriter payload;
  payload.PutU32(2);
  payload.PutI64s(std::vector<int64_t>{-3, 4});
  payload.PutDoubles(std::vector<double>{0.5});
  EXPECT_EQ(WrapEnvelope(SketchTypeId::kCountSketch,
                         std::move(payload).TakeBytes()),
            writer.bytes());
  EXPECT_TRUE(ParseEnvelope(writer.bytes()).ok());
}

TEST(WireTest, EnvelopeStartsWithAsciiMagic) {
  std::vector<uint8_t> bytes = WrapEnvelope(SketchTypeId::kKll, {});
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 'G');
  EXPECT_EQ(bytes[1], 'E');
  EXPECT_EQ(bytes[2], 'M');
  EXPECT_EQ(bytes[3], 'S');
}

TEST(WireTest, TypeMismatchRejectedAsCorruption) {
  std::vector<uint8_t> bytes = WrapEnvelope(SketchTypeId::kBloomFilter, {});
  EXPECT_EQ(OpenEnvelope(SketchTypeId::kCountMin, bytes).status().code(),
            StatusCode::kCorruption);
  Result<SketchTypeId> type = PeekSketchType(bytes);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), SketchTypeId::kBloomFilter);
}

TEST(WireTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = WrapEnvelope(SketchTypeId::kHyperLogLog, {1});
  bytes[0] ^= 0xFF;
  EXPECT_EQ(ParseEnvelope(bytes).status().code(), StatusCode::kCorruption);
}

TEST(WireTest, TruncationRejected) {
  std::vector<uint8_t> bytes =
      WrapEnvelope(SketchTypeId::kHyperLogLog, {1, 2, 3, 4});
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_EQ(ParseEnvelope(cut).status().code(), StatusCode::kCorruption);
  }
}

TEST(WireTest, TrailingBytesRejected) {
  std::vector<uint8_t> bytes = WrapEnvelope(SketchTypeId::kKll, {9, 9});
  bytes.push_back(0);
  EXPECT_EQ(ParseEnvelope(bytes).status().code(), StatusCode::kCorruption);
}

TEST(WireTest, FutureVersionRejected) {
  std::vector<uint8_t> bytes = WrapEnvelope(SketchTypeId::kKll, {5});
  bytes[6] = kWireVersion + 1;
  EXPECT_EQ(ParseEnvelope(bytes).status().code(), StatusCode::kCorruption);
}

TEST(WireTest, UnknownTypeIdRejected) {
  std::vector<uint8_t> bytes = WrapEnvelope(SketchTypeId::kKll, {5});
  bytes[4] = 0xFF;
  bytes[5] = 0xFF;
  EXPECT_EQ(ParseEnvelope(bytes).status().code(), StatusCode::kCorruption);
}

TEST(WireTest, EveryByteFlipRejected) {
  ByteWriter w;
  w.PutU64(0xDEADBEEF);
  std::vector<uint8_t> bytes =
      WrapEnvelope(SketchTypeId::kTDigest, std::move(w).TakeBytes());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x20;
    EXPECT_EQ(ParseEnvelope(corrupt).status().code(), StatusCode::kCorruption)
        << "byte " << i;
  }
}

// Compile-time checks that the concepts describe what we think they do.
struct FakeSummary {
  void Update(uint64_t) {}
  void Update(double) = delete;  // Make ValueSummary fail below.
  Status Merge(const FakeSummary&) { return Status::Ok(); }
};
static_assert(ItemSummary<FakeSummary>);
static_assert(MergeableSummary<FakeSummary>);
static_assert(!ValueSummary<FakeSummary>);

struct FakeQuantile {
  void Update(double) {}
};
static_assert(ValueSummary<FakeQuantile>);
static_assert(!MergeableSummary<FakeQuantile>);

TEST(SummaryConceptsTest, ConceptsCompile) { SUCCEED(); }

// ---------------------------------------------------------------- Params

TEST(ParamsTest, HllPrecisionInvertsErrorLaw) {
  // 1% error needs p = 14 (1.04/sqrt(2^14) = 0.81%).
  EXPECT_EQ(HllPrecisionFor(0.01), 14);
  EXPECT_LE(HllErrorAt(HllPrecisionFor(0.01)), 0.01);
  EXPECT_LE(HllErrorAt(HllPrecisionFor(0.05)), 0.05);
  // Clamped to the supported range.
  EXPECT_EQ(HllPrecisionFor(0.9), 4);
  EXPECT_EQ(HllPrecisionFor(0.0001), 18);
}

TEST(ParamsTest, KmvKInvertsErrorLaw) {
  const uint32_t k = KmvKFor(0.02);
  EXPECT_LE(1.0 / std::sqrt(static_cast<double>(k) - 2.0), 0.02);
  EXPECT_GE(k, 2502u);
}

TEST(ParamsTest, CountMinDimensions) {
  EXPECT_EQ(CountMinWidthFor(0.001), 2719u);  // ceil(e/0.001).
  EXPECT_EQ(CountMinDepthFor(0.01), 5u);      // ceil(ln 100) = 5.
  EXPECT_EQ(CountMinBytesAt(2719, 5), 2719u * 5 * 8);
}

TEST(ParamsTest, BloomBitsMatchFormula) {
  // 1% FPR needs ~9.59 bits/item.
  const uint64_t bits = BloomBitsFor(1000, 0.01);
  EXPECT_NEAR(static_cast<double>(bits) / 1000.0, 9.585, 0.01);
  EXPECT_EQ(BloomBytesAt(801), 101u);
}

TEST(ParamsTest, OtherAdvisors) {
  EXPECT_EQ(SpaceSavingCapacityFor(0.001), 1000u);
  EXPECT_GE(KllKFor(0.01), 170u);
}

}  // namespace
}  // namespace gems
