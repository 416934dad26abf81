// End-to-end wire-format properties, driven through the sketch registry:
// every registered sketch must round-trip its envelope exactly, and every
// way of damaging an envelope (bit flips, truncation, re-tagging, type
// confusion) must come back as kCorruption — never a crash, never silent
// garbage. Run under ASan/UBSan in CI.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cardinality/hyperloglog.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/registry.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"
#include "core/io.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/dyadic_count_min.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"
#include "graph/agm.h"
#include "membership/bloom.h"
#include "quantiles/kll.h"
#include "hostile_envelopes.h"
#include "sampling/reservoir.h"
#include "server/keyspace.h"

namespace gems {
namespace {

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterBuiltinSketches(); }
};

// Concept-driven exact round trip: deserializing and re-serializing must
// reproduce the envelope byte for byte (so every estimate matches exactly,
// not just approximately), and the restored copy must still merge with the
// original when the type is mergeable.
template <typename S>
  requires SerializableSummary<S>
void ExpectExactRoundTrip(const S& sketch) {
  const std::vector<uint8_t> bytes = sketch.Serialize();
  Result<S> restored = S::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Serialize(), bytes);
  if constexpr (MergeableSummary<S>) {
    S merged = std::move(restored).value();
    const Status s = merged.Merge(sketch);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

// Builds one populated envelope per registered type that has a default
// factory, feeding each sketch the same item stream through the
// type-erased Update dispatch.
std::vector<AnySketch> PopulatedRegisteredSketches() {
  std::vector<AnySketch> sketches;
  for (SketchTypeId id : SketchRegistry::Global().RegisteredTypes()) {
    const SketchRegistry::Entry* entry = SketchRegistry::Global().Find(id);
    if (entry == nullptr || !entry->make_default) continue;
    AnySketch sketch = entry->make_default();
    for (uint64_t i = 1; i <= 500; ++i) {
      // Well-spread items kept below 2^32 so they are in-universe for
      // every registered default (q-digest's is [0, 2^32)).
      const Status s = sketch.Update((i * 0x9E3779B97F4A7C15ull) >> 32);
      EXPECT_TRUE(s.ok()) << entry->name << ": " << s.ToString();
    }
    sketches.push_back(std::move(sketch));
  }
  // The registry must actually cover the library, not just compile.
  EXPECT_GE(sketches.size(), 17u);
  return sketches;
}

TEST_F(WireTest, TypedSketchesRoundTripExactly) {
  HyperLogLog hll(12);
  CountMinSketch cm = CountMinSketch::ForGuarantee(0.001, 0.01);
  KllSketch kll;
  BloomFilter bloom = BloomFilter::ForCapacity(4096, 0.01);
  ReservoirSampler reservoir(128, 7);
  AgmSketch agm(64, 7);
  for (uint64_t i = 1; i <= 2000; ++i) {
    hll.Update(i);
    cm.Update(i % 97, 1);
    kll.Update(static_cast<double>(i % 1000));
    bloom.Insert(i);
    reservoir.Update(i);
    const auto u = static_cast<uint32_t>(i % 64);
    agm.AddEdge(u, (u + 1 + static_cast<uint32_t>((i * 31) % 63)) % 64);
  }
  ExpectExactRoundTrip(hll);
  ExpectExactRoundTrip(cm);
  ExpectExactRoundTrip(kll);
  ExpectExactRoundTrip(bloom);
  ExpectExactRoundTrip(reservoir);
  ExpectExactRoundTrip(agm);
}

TEST_F(WireTest, EveryRegisteredSketchRoundTripsThroughRegistry) {
  for (const AnySketch& original : PopulatedRegisteredSketches()) {
    SCOPED_TRACE(original.type_name());
    const std::vector<uint8_t> bytes = original.Serialize();
    ASSERT_GE(bytes.size(), kWireHeaderSize);

    Result<AnySketch> restored = SketchRegistry::Global().Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value().type(), original.type());
    // Exact state: the restored sketch re-serializes to the same bytes, so
    // every estimate it can produce matches the original's exactly.
    EXPECT_EQ(restored.value().Serialize(), bytes);
    EXPECT_EQ(restored.value().EstimateSummary(), original.EstimateSummary());

    // Restored copies stay merge-compatible with the original. Two
    // registered types deliberately have no merge: GK, and the DGIM
    // exponential histogram (two bucket streams cannot interleave).
    AnySketch merged = restored.value();
    const Status s = merged.Merge(original);
    if (original.type() == SketchTypeId::kGreenwaldKhanna ||
        original.type() == SketchTypeId::kExponentialHistogram) {
      EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
}

TEST_F(WireTest, EmptyRegisteredSketchesRoundTrip) {
  for (SketchTypeId id : SketchRegistry::Global().RegisteredTypes()) {
    const SketchRegistry::Entry* entry = SketchRegistry::Global().Find(id);
    if (entry == nullptr || !entry->make_default) continue;
    SCOPED_TRACE(entry->name);
    const std::vector<uint8_t> bytes = entry->make_default().Serialize();
    Result<AnySketch> restored = SketchRegistry::Global().Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value().Serialize(), bytes);
  }
}

// Positions to damage: the whole header plus a spread of payload offsets
// (flipping all of a multi-megabyte Bloom envelope would dominate test
// time without adding coverage).
std::vector<size_t> SampledPositions(size_t size) {
  std::vector<size_t> positions;
  for (size_t i = 0; i < size && i < 64; ++i) positions.push_back(i);
  const size_t stride = size > 64 ? (size - 64) / 64 + 1 : 1;
  for (size_t i = 64; i < size; i += stride) positions.push_back(i);
  if (size > 0) positions.push_back(size - 1);
  return positions;
}

TEST_F(WireTest, BitFlipAnywhereIsCorruption) {
  for (const AnySketch& original : PopulatedRegisteredSketches()) {
    SCOPED_TRACE(original.type_name());
    const std::vector<uint8_t> bytes = original.Serialize();
    for (size_t pos : SampledPositions(bytes.size())) {
      std::vector<uint8_t> damaged = bytes;
      damaged[pos] ^= 0x01;
      Result<AnySketch> r = SketchRegistry::Global().Deserialize(damaged);
      ASSERT_FALSE(r.ok()) << "flip at " << pos << " was accepted";
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
          << "flip at " << pos << ": " << r.status().ToString();
    }
  }
}

TEST_F(WireTest, TruncationAnywhereIsCorruption) {
  for (const AnySketch& original : PopulatedRegisteredSketches()) {
    SCOPED_TRACE(original.type_name());
    const std::vector<uint8_t> bytes = original.Serialize();
    for (size_t len : SampledPositions(bytes.size())) {
      const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
      Result<AnySketch> r = SketchRegistry::Global().Deserialize(cut);
      ASSERT_FALSE(r.ok()) << "truncation to " << len << " was accepted";
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_F(WireTest, ViewWrapRejectsBitFlipsLikeDeserialize) {
  // The zero-copy wrap path must hold the same line as Deserialize: any
  // damaged envelope comes back as kCorruption from SketchView::Wrap and
  // the registry's Wrap, never a view over garbage.
  for (const AnySketch& original : PopulatedRegisteredSketches()) {
    SCOPED_TRACE(original.type_name());
    const std::vector<uint8_t> bytes = original.Serialize();
    for (size_t pos : SampledPositions(bytes.size())) {
      std::vector<uint8_t> damaged = bytes;
      damaged[pos] ^= 0x01;
      Result<SketchView> v = SketchView::Wrap(damaged);
      ASSERT_FALSE(v.ok()) << "flip at " << pos << " was wrapped";
      EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
      Result<AnySketchView> av = SketchRegistry::Global().Wrap(damaged);
      ASSERT_FALSE(av.ok()) << "flip at " << pos << " was wrapped";
    }
  }
}

TEST_F(WireTest, ViewWrapRejectsTruncation) {
  for (const AnySketch& original : PopulatedRegisteredSketches()) {
    SCOPED_TRACE(original.type_name());
    const std::vector<uint8_t> bytes = original.Serialize();
    for (size_t len : SampledPositions(bytes.size())) {
      const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
      Result<SketchView> v = SketchView::Wrap(cut);
      ASSERT_FALSE(v.ok()) << "truncation to " << len << " was wrapped";
      EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_F(WireTest, ViewWrapRejectsOverLongDeclaredLength) {
  // A length field larger than the buffer must fail the bounds check in
  // both verification modes, before any payload access.
  HyperLogLog hll(10);
  for (uint64_t i = 0; i < 100; ++i) hll.Update(i);
  std::vector<uint8_t> bytes = hll.Serialize();
  bytes[8] += 1;  // Low byte of the u32 payload length.
  EXPECT_EQ(SketchView::Wrap(bytes).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(SketchView::WrapTrusted(bytes).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(HyperLogLog::Deserialize(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST_F(WireTest, TypedViewWrapRejectsTypeConfusion) {
  // A valid envelope of every other registered type must be refused by
  // View<HyperLogLog> at wrap time, and by AnySketch::MergeFromView at
  // merge time — as a Status, never a misparse.
  const SketchRegistry::Entry* hll_entry =
      SketchRegistry::Global().Find(SketchTypeId::kHyperLogLog);
  ASSERT_NE(hll_entry, nullptr);
  for (const AnySketch& original : PopulatedRegisteredSketches()) {
    if (original.type() == SketchTypeId::kHyperLogLog) continue;
    SCOPED_TRACE(original.type_name());
    const std::vector<uint8_t> bytes = original.Serialize();
    Result<View<HyperLogLog>> typed = View<HyperLogLog>::Wrap(bytes);
    ASSERT_FALSE(typed.ok());
    EXPECT_EQ(typed.status().code(), StatusCode::kCorruption);

    AnySketch acc = hll_entry->make_default();
    Result<SketchView> view = SketchView::Wrap(bytes);
    ASSERT_TRUE(view.ok());
    const Status s = acc.MergeFromView(view.value());
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(WireTest, TypeConfusionIsCorruption) {
  // Feeding a valid envelope of type A to type B's typed Deserialize must
  // be detected from the envelope tag, for every registered type.
  for (const AnySketch& original : PopulatedRegisteredSketches()) {
    SCOPED_TRACE(original.type_name());
    const std::vector<uint8_t> bytes = original.Serialize();
    if (original.type() != SketchTypeId::kHyperLogLog) {
      Result<HyperLogLog> r = HyperLogLog::Deserialize(bytes);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    } else {
      Result<BloomFilter> r = BloomFilter::Deserialize(bytes);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_F(WireTest, RetaggedTypeIdIsCorruption) {
  // Rewriting the type tag of a valid envelope (without fixing the
  // checksum) must fail the checksum, not reach the wrong parser.
  HyperLogLog hll(12);
  for (uint64_t i = 0; i < 100; ++i) hll.Update(i);
  std::vector<uint8_t> bytes = hll.Serialize();
  const auto kll_id = static_cast<uint16_t>(SketchTypeId::kKll);
  bytes[4] = static_cast<uint8_t>(kll_id & 0xFF);
  bytes[5] = static_cast<uint8_t>(kll_id >> 8);
  Result<AnySketch> r = SketchRegistry::Global().Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(WireTest, UnregisteredButValidTypeIdIsCorruption) {
  // kDyadicCountMin is a known wire id with no registered deserializer;
  // the registry cannot interpret such bytes and must say corruption.
  const std::vector<uint8_t> bytes =
      WrapEnvelope(SketchTypeId::kDyadicCountMin, {1, 2, 3});
  ASSERT_TRUE(ParseEnvelope(bytes).ok());  // The envelope itself is fine.
  Result<AnySketch> r = SketchRegistry::Global().Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

// A SpaceSaving envelope over hand-written (item, count) entries with zero
// error; valid framing and checksum, whatever the entries say. The total
// weight defaults to the sum of the counts.
std::vector<uint8_t> SpaceSavingImage(
    uint64_t capacity, std::vector<std::pair<uint64_t, int64_t>> entries,
    std::optional<int64_t> total = std::nullopt) {
  std::vector<uint8_t> payload;
  ByteSink sink(&payload);
  sink.PutVarint(capacity);
  if (!total) {
    total = 0;
    for (const auto& entry : entries) *total += entry.second;
  }
  sink.PutI64(*total);
  sink.PutVarint(entries.size());
  for (const auto& [item, count] : entries) {
    sink.PutU64(item);
    sink.PutI64(count);
    sink.PutI64(0);
  }
  return WrapEnvelope(SketchTypeId::kSpaceSaving, payload);
}

TEST_F(WireTest, SpaceSavingDuplicateItemIsCorruption) {
  // Each entry passes the per-entry checks; the image as a whole tracks
  // item 7 twice and must be refused. Both the scan (capacity 8) and the
  // indexed (capacity 1024) regime, on Deserialize and on MergeFromView.
  for (uint64_t capacity : {8u, 1024u}) {
    SCOPED_TRACE(capacity);
    const std::vector<uint8_t> bytes =
        SpaceSavingImage(capacity, {{7, 4}, {5, 3}, {7, 2}});
    EXPECT_EQ(SpaceSaving::Deserialize(bytes).status().code(),
              StatusCode::kCorruption);
    Result<View<SpaceSaving>> view = View<SpaceSaving>::Wrap(bytes);
    ASSERT_TRUE(view.ok());
    SpaceSaving acc(capacity);
    for (uint64_t i = 0; i < 2000; ++i) acc.Update(i % 1500);
    const std::vector<uint8_t> before = acc.Serialize();
    EXPECT_EQ(MergeFromView(acc, view.value()).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(acc.Serialize(), before);

    EXPECT_TRUE(
        SpaceSaving::Deserialize(SpaceSavingImage(capacity, {{7, 4}, {5, 3}}))
            .ok());
  }
}

TEST_F(WireTest, SpaceSavingHostileHeaderIsCorruption) {
  // An entry count far beyond the payload must fail before any allocation
  // sized by it.
  std::vector<uint8_t> payload;
  ByteSink sink(&payload);
  sink.PutVarint(uint64_t{1} << 62);  // Capacity.
  sink.PutI64(0);
  sink.PutVarint(uint64_t{1} << 50);  // Entries; none follow.
  EXPECT_EQ(SpaceSaving::Deserialize(
                WrapEnvelope(SketchTypeId::kSpaceSaving, payload))
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(WireTest, SpaceSavingWeightBeyondTotalIsRejected) {
  // Counts summing past the total weight cannot come from ingest or merge;
  // refusing them keeps every later merge sum inside int64.
  EXPECT_EQ(SpaceSaving::Deserialize(SpaceSavingImage(8, {{7, 4}, {5, 3}}, 6))
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(
      SpaceSaving::Deserialize(SpaceSavingImage(8, {}, -1)).status().code(),
      StatusCode::kCorruption);
  const std::vector<uint8_t> wrapping =
      SpaceSavingImage(8, {{7, INT64_MAX}, {5, INT64_MAX}}, INT64_MAX);
  EXPECT_EQ(SpaceSaving::Deserialize(wrapping).status().code(),
            StatusCode::kCorruption);

  // Two valid images whose totals together overflow: the merge is refused
  // and leaves the accumulator as it was.
  const std::vector<uint8_t> heavy =
      SpaceSavingImage(8, {{7, INT64_MAX / 2 + 1}});
  Result<SpaceSaving> acc = SpaceSaving::Deserialize(heavy);
  ASSERT_TRUE(acc.ok());
  Result<View<SpaceSaving>> view = View<SpaceSaving>::Wrap(heavy);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(MergeFromView(acc.value(), view.value()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(acc.value().Serialize(), heavy);
}

TEST_F(WireTest, CountMinMergeOverflowIsRefused) {
  // Two valid sketches whose totals together overflow int64: Merge and
  // MergeFromView refuse with kOutOfRange before any counter moves, in
  // both counter layouts.
  for (SketchLayout layout : {SketchLayout::kFlat, SketchLayout::kBlocked}) {
    SCOPED_TRACE(static_cast<int>(layout));
    CountMinSketch heavy(64, 4, 9, /*conservative_update=*/false, layout);
    heavy.Update(7, INT64_MAX / 2 + 1);
    const std::vector<uint8_t> bytes = heavy.Serialize();
    CountMinSketch acc = heavy;
    EXPECT_EQ(acc.Merge(heavy).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(acc.Serialize(), bytes);
    Result<View<CountMinSketch>> view = View<CountMinSketch>::Wrap(bytes);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(MergeFromView(acc, view.value()).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(acc.Serialize(), bytes);
  }
}

TEST_F(WireTest, CountSketchViewMergeWrapsLikeMerge) {
  // Counters at +-INT64_MAX doubled: Merge's i64_add kernel wraps in two's
  // complement, and MergeFromView must wrap the same way rather than hit
  // signed-overflow UB (UBSan builds catch the difference), in both
  // counter layouts.
  for (SketchLayout layout : {SketchLayout::kFlat, SketchLayout::kBlocked}) {
    SCOPED_TRACE(static_cast<int>(layout));
    CountSketch heavy(64, 4, 9, layout);
    heavy.Update(7, INT64_MAX);
    const std::vector<uint8_t> bytes = heavy.Serialize();
    CountSketch by_merge = heavy;
    ASSERT_TRUE(by_merge.Merge(heavy).ok());
    CountSketch by_view = heavy;
    Result<View<CountSketch>> view = View<CountSketch>::Wrap(bytes);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(MergeFromView(by_view, view.value()).ok());
    EXPECT_EQ(by_view.Serialize(), by_merge.Serialize());
  }
}

TEST_F(WireTest, BlockedDepthBeyondBlockIsCorruptionOnEveryPath) {
  // A blocked counter layout holds at most eight rows. An otherwise
  // well-formed image that says blocked with depth 9 must be kCorruption
  // on every route gemsd takes: decode (RESTORE), registry Wrap ->
  // AnySketch::MergeFromView, and Keyspace::Merge (MERGE).
  constexpr uint32_t kWidth = 16;
  constexpr uint32_t kDepth = 9;
  ByteWriter count_min;
  count_min.PutU32(kWidth);
  count_min.PutU32(kDepth);
  count_min.PutU64(7);  // Seed.
  count_min.PutU8(0);   // Not conservative.
  count_min.PutI64(0);  // Total.
  for (uint32_t i = 0; i < kWidth * kDepth; ++i) count_min.PutVarint(0);
  count_min.PutU8(1);  // Blocked layout.
  ByteWriter count_sketch;
  count_sketch.PutU32(kWidth);
  count_sketch.PutU32(kDepth);
  count_sketch.PutU64(7);
  for (uint32_t i = 0; i < kWidth * kDepth; ++i) count_sketch.PutI64(0);
  count_sketch.PutU8(1);
  const std::vector<std::pair<std::string, std::vector<uint8_t>>> images = {
      {"count_min", WrapEnvelope(SketchTypeId::kCountMin, count_min.bytes())},
      {"count_sketch",
       WrapEnvelope(SketchTypeId::kCountSketch, count_sketch.bytes())},
  };
  const SketchRegistry& registry = SketchRegistry::Global();
  for (const auto& [name, bytes] : images) {
    SCOPED_TRACE(name);
    EXPECT_EQ(registry.Deserialize(bytes).status().code(),
              StatusCode::kCorruption);

    Result<AnySketchView> view = registry.Wrap(bytes);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    AnySketch into = registry.FindByName(name)->make_default();
    EXPECT_EQ(into.MergeFromView(view.value().sketch_view()).code(),
              StatusCode::kCorruption);

    server::Keyspace keyspace;
    ASSERT_TRUE(keyspace.Create("key", name).ok());
    EXPECT_EQ(keyspace.Merge("key", bytes, /*trusted=*/false).code(),
              StatusCode::kCorruption);
  }
}

TEST_F(WireTest, MisraGriesMergeOverflowIsRefused) {
  // Totals that overflow together.
  MisraGries heavy(8);
  heavy.Update(7, INT64_MAX / 2 + 1);
  MisraGries acc = heavy;
  EXPECT_EQ(acc.Merge(heavy).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(acc.Serialize(), heavy.Serialize());

  // A hostile image whose shared count overflows while its totals do not.
  ByteWriter w;
  w.PutVarint(8);          // Counters.
  w.PutI64(0);             // Total.
  w.PutI64(0);             // Decrements.
  w.PutVarint(1);          // Entries.
  w.PutU64(7);
  w.PutI64(INT64_MAX);
  const std::vector<uint8_t> image =
      WrapEnvelope(SketchTypeId::kMisraGries, std::move(w).TakeBytes());
  Result<MisraGries> hostile = MisraGries::Deserialize(image);
  ASSERT_TRUE(hostile.ok());
  EXPECT_EQ(hostile.value().Merge(hostile.value()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(hostile.value().Serialize(), image);
}

TEST_F(WireTest, DyadicCountMinMergeOverflowIsRefused) {
  DyadicCountMin heavy(8, 64, 4, 3);
  heavy.Update(5, INT64_MAX / 2 + 1);
  DyadicCountMin acc = heavy;
  EXPECT_EQ(acc.Merge(heavy).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(acc.TotalWeight(), heavy.TotalWeight());
  // No level moved either.
  EXPECT_EQ(acc.EstimateRangeSum(0, 255), heavy.EstimateRangeSum(0, 255));
  EXPECT_EQ(acc.EstimateRangeSum(5, 5), heavy.EstimateRangeSum(5, 5));
}

TEST_F(WireTest, EmptyHandleOperationsFailCleanly) {
  AnySketch empty;
  EXPECT_FALSE(empty.has_value());
  EXPECT_STREQ(empty.type_name(), "empty");
  EXPECT_FALSE(empty.Update(1).ok());
  EXPECT_FALSE(empty.Merge(AnySketch()).ok());
  EXPECT_TRUE(empty.Serialize().empty());
}

TEST_F(WireTest, MergeRejectsMismatchedTypes) {
  const SketchRegistry::Entry* hll =
      SketchRegistry::Global().Find(SketchTypeId::kHyperLogLog);
  const SketchRegistry::Entry* kll =
      SketchRegistry::Global().Find(SketchTypeId::kKll);
  ASSERT_NE(hll, nullptr);
  ASSERT_NE(kll, nullptr);
  AnySketch a = hll->make_default();
  AnySketch b = kll->make_default();
  const Status s = a.Merge(b);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(WireTest, FindByNameMatchesTypeName) {
  for (SketchTypeId id : SketchRegistry::Global().RegisteredTypes()) {
    const SketchRegistry::Entry* by_id = SketchRegistry::Global().Find(id);
    ASSERT_NE(by_id, nullptr);
    EXPECT_EQ(by_id->name, SketchTypeName(id));
    EXPECT_EQ(SketchRegistry::Global().FindByName(by_id->name), by_id);
  }
}

// Runs every hostile envelope through the three routes gemsd takes from
// untrusted bytes to a decoder: Deserialize (RESTORE's registry path),
// Wrap -> MergeFromView (MERGE) and Keyspace::Restore (a checkpoint
// image). Prints each wrong status or escaped exception; returns how many.
int CheckHostileEnvelopes() {
  const SketchRegistry& registry = SketchRegistry::Global();
  server::Keyspace keyspace;
  int failures = 0;
  const auto expect = [&failures](const std::string& what, StatusCode want,
                                  const Status& got) {
    if (got.code() == want) return;
    std::fprintf(stderr, "%s: want %s, got %s\n", what.c_str(),
                 StatusCodeName(want), got.ToString().c_str());
    ++failures;
  };
  const auto restore_one = [&keyspace](ByteSpan envelope) {
    ByteWriter image;
    image.PutU8(1);  // Keyspace checkpoint version.
    image.PutU32(1);
    image.PutString("key");
    image.PutU32(static_cast<uint32_t>(envelope.size()));
    image.PutRaw(envelope.data(), envelope.size());
    return keyspace.Restore(image.bytes());
  };
  for (const testing::HostileEnvelope& hostile : testing::HostileEnvelopes()) {
    const std::string family = hostile.family;
    try {
      Result<AnySketch> decoded = registry.Deserialize(hostile.bytes);
      expect(family + " Deserialize", StatusCode::kCorruption,
             decoded.ok() ? Status::Ok() : decoded.status());

      // The merge route needs a live sketch to merge into; AGM has no
      // default shape to build one from.
      const SketchRegistry::Entry* entry =
          registry.Find(ParseEnvelope(hostile.bytes).value().type);
      Result<AnySketchView> view = registry.Wrap(hostile.bytes);
      if (!view.ok()) {
        expect(family + " Wrap", StatusCode::kCorruption, view.status());
      } else if (entry->make_default) {
        AnySketch into = entry->make_default();
        // A family with no merge at all answers kUnimplemented first.
        const bool mergeable =
            into.Merge(entry->make_default()).code() !=
            StatusCode::kUnimplemented;
        expect(family + " MergeFromView",
               mergeable ? StatusCode::kCorruption : StatusCode::kUnimplemented,
               into.MergeFromView(view.value().sketch_view()));
      }

      expect(family + " Keyspace::Restore", StatusCode::kCorruption,
             restore_one(hostile.bytes));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: threw %s\n", family.c_str(), e.what());
      ++failures;
    }
  }
  // A checkpoint image that declares 2^32 - 1 entries and holds none.
  ByteWriter image;
  image.PutU8(1);
  image.PutU32(0xFFFFFFFF);
  try {
    expect("keyspace entry count", StatusCode::kCorruption,
           keyspace.Restore(image.bytes()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "keyspace entry count: threw %s\n", e.what());
    ++failures;
  }
  return failures;
}

// A decoder must check the payload before it allocates what the header
// declares: each envelope below would ask for up to 2^64 bytes. The checks
// run in a child process whose address space is capped at 1 GiB, so an
// unchecked allocation fails the test (bad_alloc, or a crash) instead of
// exhausting the host.
TEST_F(WireTest, DeclaredShapeBeyondPayloadIsCorruptionBeforeAllocation) {
  if (!testing::kAddressSpaceCapUsable) {
    GTEST_SKIP() << "RLIMIT_AS cannot cap a sanitizer build";
  }
  EXPECT_EXIT(
      {
        if (!testing::CapAddressSpace(uint64_t{1} << 30)) std::exit(2);
        std::exit(CheckHostileEnvelopes() == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace gems
