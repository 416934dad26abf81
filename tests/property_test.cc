// Cross-sketch property tests: invariants that must hold for EVERY sketch
// of a given kind, exercised through one generic driver each.
//
//  P1  Serialization fuzzing: deserializing arbitrarily corrupted or
//      truncated bytes never crashes and never fabricates an OK result
//      from a wrong-typed frame.
//  P2  Round-trip identity: Serialize -> Deserialize -> Serialize is a
//      fixed point (byte-identical).
//  P3  Merge-of-parts equals whole for register/linear sketches.
//  P4  Distinct-count estimators are monotone under insertion.
//  P5  Confidence intervals are ordered (lower <= value <= upper).

#include <cstdint>
#include <functional>
#include <typeindex>
#include <vector>

#include <gtest/gtest.h>

#include "cardinality/flajolet_martin.h"
#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "cardinality/linear_counting.h"
#include "cardinality/loglog.h"
#include "cardinality/morris.h"
#include "common/random.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"
#include "membership/blocked_bloom.h"
#include "membership/bloom.h"
#include "membership/counting_bloom.h"
#include "moments/ams.h"
#include "quantiles/gk.h"
#include "quantiles/kll.h"
#include "quantiles/qdigest.h"
#include "quantiles/tdigest.h"
#include "sampling/reservoir.h"
#include "similarity/minhash.h"
#include "workload/generators.h"

namespace gems {
namespace {

// ------------------------------------------------- P1 + P2 via one driver

// Produces the serialized bytes of a populated sketch and a deserializer.
struct SerializedSketch {
  const char* name;
  std::type_index type = typeid(void);
  std::vector<uint8_t> bytes;
  // Returns true if deserialization succeeded (used by fuzzing; must not
  // crash either way).
  std::function<bool(const std::vector<uint8_t>&)> try_deserialize;
  // Re-serializes a deserialized copy; empty if deserialization failed.
  std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>
      reserialize;
};

template <typename S>
SerializedSketch MakeCase(const char* name, S sketch) {
  SerializedSketch result;
  result.name = name;
  result.type = typeid(S);
  result.bytes = sketch.Serialize();
  result.try_deserialize = [](const std::vector<uint8_t>& bytes) {
    return S::Deserialize(bytes).ok();
  };
  result.reserialize = [](const std::vector<uint8_t>& bytes) {
    auto r = S::Deserialize(bytes);
    if (!r.ok()) return std::vector<uint8_t>();
    return r.value().Serialize();
  };
  return result;
}

std::vector<SerializedSketch> AllSerializableSketches() {
  std::vector<SerializedSketch> cases;
  const auto items = DistinctItems(5000, 1);

  {
    MorrisCounter s(32, 1);
    s.IncrementBy(12345);
    cases.push_back(MakeCase("Morris", std::move(s)));
  }
  {
    LinearCounting s(4096, 2);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("LinearCounting", std::move(s)));
  }
  {
    FlajoletMartin s(64, 3);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("FlajoletMartin", std::move(s)));
  }
  {
    LogLog s(8, 4);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("LogLog", std::move(s)));
  }
  {
    HyperLogLog s(10, 5);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("HyperLogLog", std::move(s)));
  }
  {
    HllPlusPlus s(10, 6);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("HllPlusPlus", std::move(s)));
  }
  {
    KmvSketch s(256, 7);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("Kmv", std::move(s)));
  }
  {
    BloomFilter s(8192, 5, 8);
    for (uint64_t item : items) s.Insert(item);
    cases.push_back(MakeCase("Bloom", std::move(s)));
  }
  {
    CountingBloomFilter s(8192, 4, 9);
    for (uint64_t item : items) s.Insert(item);
    cases.push_back(MakeCase("CountingBloom", std::move(s)));
  }
  {
    BlockedBloomFilter s(8192, 6, 10);
    for (uint64_t item : items) s.Insert(item);
    cases.push_back(MakeCase("BlockedBloom", std::move(s)));
  }
  {
    CountMinSketch s(512, 4, 11);
    for (uint64_t item : items) s.Update(item % 100);
    cases.push_back(MakeCase("CountMin", std::move(s)));
  }
  {
    CountSketch s(512, 5, 12);
    for (uint64_t item : items) s.Update(item % 100);
    cases.push_back(MakeCase("CountSketch", std::move(s)));
  }
  {
    MisraGries s(64);
    for (uint64_t item : items) s.Update(item % 200);
    cases.push_back(MakeCase("MisraGries", std::move(s)));
  }
  {
    SpaceSaving s(64);
    for (uint64_t item : items) s.Update(item % 200);
    cases.push_back(MakeCase("SpaceSaving", std::move(s)));
  }
  {
    // Above 128 slots the summary keeps a slot index; evictions included.
    SpaceSaving s(1024);
    for (uint64_t item : items) s.Update(item % 5000);
    cases.push_back(MakeCase("SpaceSaving1024", std::move(s)));
  }
  {
    GreenwaldKhanna s(0.02);
    for (uint64_t item : items) s.Update(static_cast<double>(item % 997));
    cases.push_back(MakeCase("GreenwaldKhanna", std::move(s)));
  }
  {
    KllSketch s(128, 13);
    for (uint64_t item : items) s.Update(static_cast<double>(item % 997));
    cases.push_back(MakeCase("Kll", std::move(s)));
  }
  {
    QDigest s(12, 64);
    for (uint64_t item : items) s.Update(item % 4096);
    cases.push_back(MakeCase("QDigest", std::move(s)));
  }
  {
    TDigest s(100);
    for (uint64_t item : items) s.Update(static_cast<double>(item % 997));
    cases.push_back(MakeCase("TDigest", std::move(s)));
  }
  {
    ReservoirSampler s(64, 14);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("Reservoir", std::move(s)));
  }
  {
    MinHashSketch s(64, 15);
    for (uint64_t item : items) s.Update(item);
    cases.push_back(MakeCase("MinHash", std::move(s)));
  }
  {
    AmsSketch s(16, 3, 16);
    for (uint64_t item : items) s.Update(item % 100);
    cases.push_back(MakeCase("Ams", std::move(s)));
  }
  return cases;
}

TEST(SerializationProperty, RoundTripIsFixedPoint) {
  for (const SerializedSketch& c : AllSerializableSketches()) {
    ASSERT_TRUE(c.try_deserialize(c.bytes)) << c.name;
    const auto again = c.reserialize(c.bytes);
    EXPECT_EQ(again, c.bytes) << c.name;
  }
}

TEST(SerializationProperty, TruncationNeverCrashesAlwaysFails) {
  for (const SerializedSketch& c : AllSerializableSketches()) {
    Rng rng(42);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<uint8_t> truncated = c.bytes;
      truncated.resize(rng.NextBounded(c.bytes.size()));
      // Must not crash; truncated frames must be rejected.
      EXPECT_FALSE(c.try_deserialize(truncated))
          << c.name << " at size " << truncated.size();
    }
  }
}

TEST(SerializationProperty, BitFlipsNeverCrash) {
  for (const SerializedSketch& c : AllSerializableSketches()) {
    Rng rng(43);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<uint8_t> corrupted = c.bytes;
      const int flips = 1 + static_cast<int>(rng.NextBounded(8));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = rng.NextBounded(corrupted.size());
        corrupted[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      // Either a clean failure or a structurally valid sketch; no crash,
      // no UB (verified under the sanitizer build).
      (void)c.try_deserialize(corrupted);
    }
  }
}

TEST(SerializationProperty, CrossTypeBytesRejected) {
  const auto cases = AllSerializableSketches();
  // Feed every sketch's bytes to every OTHER type's deserializer.
  for (size_t i = 0; i < cases.size(); ++i) {
    for (size_t j = 0; j < cases.size(); ++j) {
      if (cases[i].type == cases[j].type) continue;
      EXPECT_FALSE(cases[j].try_deserialize(cases[i].bytes))
          << cases[i].name << " bytes accepted by " << cases[j].name;
    }
  }
}

// --------------------------------------------- P3: merge-of-parts = whole

template <typename S, typename MakeFn, typename UpdateFn>
void CheckMergePartsEqualsWhole(MakeFn make, UpdateFn update, int shards) {
  const auto items = DistinctItems(60000, 77);
  S whole = make();
  std::vector<S> parts;
  for (int s = 0; s < shards; ++s) parts.push_back(make());
  for (size_t i = 0; i < items.size(); ++i) {
    update(&whole, items[i]);
    update(&parts[i % shards], items[i]);
  }
  S merged = std::move(parts[0]);
  for (int s = 1; s < shards; ++s) {
    ASSERT_TRUE(merged.Merge(parts[s]).ok());
  }
  EXPECT_EQ(merged.Serialize(), whole.Serialize());
}

template <typename S, typename MakeFn>
void CheckMergePartsEqualsWhole(MakeFn make, int shards) {
  CheckMergePartsEqualsWhole<S>(
      make, [](S* sketch, uint64_t item) { sketch->Update(item); }, shards);
}

TEST(MergeProperty, RegisterSketchesAreOrderInsensitive) {
  for (int shards : {2, 7, 32}) {
    CheckMergePartsEqualsWhole<HyperLogLog>(
        [] { return HyperLogLog(10, 3); }, shards);
    CheckMergePartsEqualsWhole<FlajoletMartin>(
        [] { return FlajoletMartin(64, 4); }, shards);
    CheckMergePartsEqualsWhole<LinearCounting>(
        [] { return LinearCounting(8192, 5); }, shards);
    CheckMergePartsEqualsWhole<LogLog>([] { return LogLog(9, 6); }, shards);
    CheckMergePartsEqualsWhole<KmvSketch>(
        [] { return KmvSketch(512, 7); }, shards);
    CheckMergePartsEqualsWhole<MinHashSketch>(
        [] { return MinHashSketch(32, 8); }, shards);
    CheckMergePartsEqualsWhole<BloomFilter>(
        [] { return BloomFilter(8192, 5, 9); },
        [](BloomFilter* filter, uint64_t item) { filter->Insert(item); },
        shards);
  }
}

// ------------------------------------------------------- P4: monotonicity

template <typename S>
void CheckMonotone(S sketch, int steps) {
  double last = -1.0;
  UniformItemGenerator gen(1 << 30, 55);
  for (int step = 0; step < steps; ++step) {
    for (int i = 0; i < 100; ++i) sketch.Update(gen.Next());
    const double now = sketch.Estimate();
    EXPECT_GE(now + 1e-9, last);
    last = now;
  }
}

TEST(MonotonicityProperty, DistinctCountersNeverShrink) {
  CheckMonotone(HyperLogLog(10, 1), 200);
  CheckMonotone(HllPlusPlus(10, 2), 200);
  CheckMonotone(LinearCounting(1 << 15, 3), 200);
  CheckMonotone(FlajoletMartin(128, 4), 200);
  CheckMonotone(LogLog(10, 5), 200);
  CheckMonotone(KmvSketch(512, 6), 200);
}

// --------------------------------------------- P5: interval well-formedness

TEST(IntervalProperty, AllEstimatorsOrdered) {
  const auto items = DistinctItems(30000, 88);

  HyperLogLog hll(10, 1);
  KmvSketch kmv(256, 2);
  MorrisCounter morris(64, 3);
  LinearCounting lc(1 << 14, 4);
  FlajoletMartin fm(64, 5);
  AmsSketch ams(64, 5, 6);
  for (uint64_t item : items) {
    hll.Update(item);
    kmv.Update(item);
    morris.Increment();
    lc.Update(item);
    fm.Update(item);
    ams.Update(item % 500);
  }
  for (const Estimate& e :
       {hll.EstimateWithBounds(0.95), kmv.EstimateWithBounds(0.95),
        morris.EstimateWithBounds(0.95), lc.EstimateWithBounds(0.95),
        fm.EstimateWithBounds(0.95), ams.F2Estimate(0.95)}) {
    EXPECT_LE(e.lower, e.value);
    EXPECT_LE(e.value, e.upper);
    EXPECT_DOUBLE_EQ(e.confidence, 0.95);
  }
}

}  // namespace
}  // namespace gems
