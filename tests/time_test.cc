// Tests for the src/time/ family: the PaneRing container, the sliding
// HLL / Count-Min, the decayed Count-Min, the exponential histogram, and
// their registry / concurrent integration.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cardinality/hyperloglog.h"
#include "common/random.h"
#include "core/registry.h"
#include "distributed/concurrent/concurrent_any.h"
#include "frequency/count_min.h"
#include "time/decayed_count_min.h"
#include "time/exponential_histogram.h"
#include "time/pane_ring.h"
#include "time/sliding_count_min.h"
#include "time/sliding_hll.h"

namespace gems {
namespace {

// ------------------------------------------------------------- PaneRing

TEST(PaneRingTest, OutOfOrderTimestampsClampInsteadOfAborting) {
  PaneRing<HyperLogLog> ring(HyperLogLog(12, 1), 100, 4);
  ring.Update(500, 1);
  // Late items land in the current pane: no abort, and they count.
  ring.Update(120, 2);
  ring.Update(0, 3);
  EXPECT_EQ(ring.last_timestamp(), 500u);
  EXPECT_EQ(ring.NumLivePanes(), 1u);
  EXPECT_NEAR(ring.WindowSummary().Estimate(), 3.0, 1.0);
  // The clamped clock also applies to Advance.
  ring.Advance(10);
  EXPECT_EQ(ring.last_timestamp(), 500u);
}

TEST(PaneRingTest, LargeForwardJumpDropsWholeRing) {
  PaneRing<HyperLogLog> ring(HyperLogLog(12, 1), 10, 8);
  for (uint64_t t = 0; t < 80; ++t) ring.Update(t, t);
  EXPECT_GT(ring.WindowSummary().Estimate(), 50.0);
  // Jump far past the window span: every old pane expires at once.
  ring.Advance(1'000'000);
  EXPECT_EQ(ring.NumLivePanes(), 1u);
  EXPECT_DOUBLE_EQ(ring.WindowSummary().Estimate(), 0.0);
  // And the ring keeps working afterwards.
  ring.Update(1'000'001, 42);
  EXPECT_NEAR(ring.WindowSummary().Estimate(), 1.0, 0.5);
}

TEST(PaneRingTest, PaneWidthOne) {
  // Every timestamp is its own pane; window = last 5 instants.
  PaneRing<HyperLogLog> ring(HyperLogLog(12, 1), 1, 5);
  for (uint64_t t = 0; t < 100; ++t) {
    ring.Update(t, t);
    EXPECT_LE(ring.NumLivePanes(), 5u);
  }
  // Window covers t in [95, 99]: five distinct items.
  EXPECT_NEAR(ring.WindowSummary().Estimate(), 5.0, 1.0);
}

TEST(PaneRingTest, PaneIdsAtTheTopOfTheRangeDoNotWrap) {
  // With pane width 1, timestamps near UINT64_MAX are pane ids near it;
  // expiry must not wrap around and drop the current pane.
  PaneRing<HyperLogLog> ring(HyperLogLog(12, 1), 1, 2);
  ring.Advance(UINT64_MAX - 1);
  ASSERT_EQ(ring.NumLivePanes(), 1u);
  ring.Advance(UINT64_MAX);
  ASSERT_EQ(ring.NumLivePanes(), 2u);
  ring.Update(UINT64_MAX, 7);
  EXPECT_NEAR(ring.WindowSummary().Estimate(), 1.0, 0.5);
  PaneRing<HyperLogLog> merged(HyperLogLog(12, 1), 1, 2);
  ASSERT_TRUE(merged.Merge(ring).ok());
  EXPECT_EQ(merged.NumLivePanes(), 2u);
}

TEST(PaneRingTest, SinglePaneWindowIsTumbling) {
  PaneRing<HyperLogLog> ring(HyperLogLog(12, 1), 100, 1);
  for (uint64_t i = 0; i < 50; ++i) ring.Update(10, i);
  EXPECT_NEAR(ring.WindowSummary().Estimate(), 50.0, 5.0);
  // Crossing the pane boundary tumbles: the old pane is gone entirely.
  ring.Update(100, 999);
  EXPECT_EQ(ring.NumLivePanes(), 1u);
  EXPECT_NEAR(ring.WindowSummary().Estimate(), 1.0, 0.5);
}

TEST(PaneRingTest, MemoizedWindowMatchesMutationFreeMerge) {
  PaneRing<HyperLogLog> ring(HyperLogLog(12, 7), 10, 6);
  SplitMix64 rng(11);
  for (int i = 0; i < 5000; ++i) {
    ring.Update(static_cast<uint64_t>(i) / 8, rng.Next());
    if (i % 611 == 0) {
      // The memoized view and the const merge must always agree, and
      // repeated memoized reads must be stable.
      const double memoized = ring.WindowSummary().Estimate();
      EXPECT_DOUBLE_EQ(memoized, ring.MergedWindow().Estimate());
      EXPECT_DOUBLE_EQ(memoized, ring.WindowSummary().Estimate());
    }
  }
  // The memo must not go stale across a mutation.
  const double before = ring.WindowSummary().Estimate();
  for (int i = 0; i < 2000; ++i) ring.Update(700, rng.Next());
  EXPECT_GT(ring.WindowSummary().Estimate(), before);
  EXPECT_DOUBLE_EQ(ring.WindowSummary().Estimate(),
                   ring.MergedWindow().Estimate());
}

// ------------------------------------------------------ SlidingHyperLogLog

TEST(SlidingHllTest, TracksWindowedDistinctsAgainstBruteForce) {
  const uint64_t pane_width = 10;
  const size_t num_panes = 10;
  SlidingHyperLogLog sliding(12, pane_width, num_panes, 3);
  std::vector<std::pair<uint64_t, uint64_t>> events;  // (ts, item)
  SplitMix64 rng(5);
  uint64_t next_item = 0;
  for (uint64_t t = 0; t < 400; ++t) {
    for (int i = 0; i < 5; ++i) {
      const uint64_t item = next_item++;
      events.emplace_back(t, item);
      sliding.UpdateAt(t, item);
    }
    if (t >= 100 && t % 37 == 0) {
      // Brute force: distinct items in panes overlapping the window.
      const uint64_t pane_id = t / pane_width;
      const uint64_t min_pane = pane_id + 1 - num_panes;
      std::set<uint64_t> exact;
      for (const auto& [ts, item] : events) {
        if (ts / pane_width >= min_pane) exact.insert(item);
      }
      const double estimate = sliding.Estimate();
      EXPECT_NEAR(estimate, static_cast<double>(exact.size()),
                  0.1 * static_cast<double>(exact.size()))
          << "t = " << t;
    }
  }
}

TEST(SlidingHllTest, BatchedTimedIngestIsByteIdentical) {
  SplitMix64 rng(17);
  std::vector<uint64_t> timestamps, items;
  uint64_t t = 0;
  for (int i = 0; i < 4000; ++i) {
    // Mix of forward jumps, repeats, and late (clamping) timestamps.
    const uint64_t r = rng.Next() % 10;
    if (r < 6) t += rng.Next() % 4;
    timestamps.push_back(r == 9 && t > 50 ? t - 50 : t);
    items.push_back(rng.Next() % 512);
  }
  SlidingHyperLogLog scalar(12, 16, 8, 9);
  for (size_t i = 0; i < items.size(); ++i) {
    scalar.UpdateAt(timestamps[i], items[i]);
  }
  SlidingHyperLogLog batched(12, 16, 8, 9);
  batched.UpdateBatchTimed(timestamps, items);
  EXPECT_EQ(scalar.Serialize(), batched.Serialize());
}

TEST(SlidingHllTest, SerializeRoundTripIsByteIdentical) {
  SlidingHyperLogLog sketch(10, 25, 6, 13);
  SplitMix64 rng(23);
  for (uint64_t t = 0; t < 300; t += 2) sketch.UpdateAt(t, rng.Next());
  const std::vector<uint8_t> bytes = sketch.Serialize();
  Result<SlidingHyperLogLog> restored = SlidingHyperLogLog::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().Serialize(), bytes);
  EXPECT_DOUBLE_EQ(restored.value().Estimate(), sketch.Estimate());
  EXPECT_EQ(restored.value().last_timestamp(), sketch.last_timestamp());
  EXPECT_EQ(restored.value().NumLivePanes(), sketch.NumLivePanes());
  // The restored clock keeps rolling correctly.
  restored.value().Advance(10'000);
  EXPECT_DOUBLE_EQ(restored.value().Estimate(), 0.0);
}

TEST(SlidingHllTest, MergeUnionsPaneWise) {
  SlidingHyperLogLog a(12, 10, 10, 1);
  SlidingHyperLogLog b(12, 10, 10, 1);
  for (uint64_t i = 0; i < 500; ++i) a.UpdateAt(50, i);
  for (uint64_t i = 250; i < 750; ++i) b.UpdateAt(60, i);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.last_timestamp(), 60u);
  EXPECT_NEAR(a.Estimate(), 750.0, 50.0);
  // Geometry mismatches are typed errors.
  SlidingHyperLogLog c(12, 10, 5, 1);
  EXPECT_EQ(c.Merge(a).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- SlidingCountMin

TEST(SlidingCountMinTest, WindowedCountsDropExpiredPanes) {
  SlidingCountMin sketch(2048, 4, 10, 5, 3);
  for (int i = 0; i < 100; ++i) sketch.UpdateAt(5, 7);
  EXPECT_GE(sketch.Estimate(7), 100u);
  EXPECT_EQ(sketch.TotalWeight(), 100);
  // Half the window later the item is still visible...
  sketch.Advance(30);
  EXPECT_GE(sketch.Estimate(7), 100u);
  // ...and gone once its pane leaves the window.
  sketch.Advance(1000);
  EXPECT_EQ(sketch.Estimate(7), 0u);
  EXPECT_EQ(sketch.TotalWeight(), 0);
}

TEST(SlidingCountMinTest, EstimateMatchesMaterializedWindowMerge) {
  SlidingCountMin sketch(256, 4, 10, 8, 5);
  // A reference flat CM fed the same in-window items (no expiry happens
  // below, so the window holds everything).
  CountMinSketch reference(256, 4, 5);
  SplitMix64 rng(29);
  for (uint64_t t = 0; t < 70; ++t) {
    const uint64_t item = rng.Next() % 64;
    sketch.UpdateAt(t, item);
    reference.Update(item);
  }
  for (uint64_t item = 0; item < 64; ++item) {
    EXPECT_EQ(sketch.Estimate(item), reference.Estimate(item))
        << "item " << item;
  }
}

TEST(SlidingCountMinTest, BatchedTimedIngestIsByteIdentical) {
  SplitMix64 rng(31);
  std::vector<uint64_t> timestamps, items;
  uint64_t t = 100;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t r = rng.Next() % 10;
    if (r < 5) t += rng.Next() % 6;
    timestamps.push_back(r == 9 ? t - std::min<uint64_t>(t, 33) : t);
    items.push_back(rng.Next() % 128);
  }
  SlidingCountMin scalar(512, 4, 20, 6, 7);
  for (size_t i = 0; i < items.size(); ++i) {
    scalar.UpdateAt(timestamps[i], items[i]);
  }
  SlidingCountMin batched(512, 4, 20, 6, 7);
  batched.UpdateBatchTimed(timestamps, items);
  EXPECT_EQ(scalar.Serialize(), batched.Serialize());
}

TEST(SlidingCountMinTest, SerializeRoundTripIsByteIdentical) {
  SlidingCountMin sketch(512, 4, 15, 7, 11);
  SplitMix64 rng(37);
  for (uint64_t t = 0; t < 200; t += 3) {
    sketch.UpdateAt(t, rng.Next() % 100);
  }
  const std::vector<uint8_t> bytes = sketch.Serialize();
  Result<SlidingCountMin> restored = SlidingCountMin::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().Serialize(), bytes);
  EXPECT_EQ(restored.value().TotalWeight(), sketch.TotalWeight());
  for (uint64_t item = 0; item < 100; ++item) {
    EXPECT_EQ(restored.value().Estimate(item), sketch.Estimate(item));
  }
}

TEST(SlidingCountMinTest, MergeSumsOverlappingPanes) {
  SlidingCountMin a(1024, 4, 10, 10, 1);
  SlidingCountMin b(1024, 4, 10, 10, 1);
  for (int i = 0; i < 40; ++i) a.UpdateAt(10, 5);
  for (int i = 0; i < 60; ++i) b.UpdateAt(10, 5);
  for (int i = 0; i < 30; ++i) b.UpdateAt(55, 6);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_GE(a.Estimate(5), 100u);
  EXPECT_GE(a.Estimate(6), 30u);
  EXPECT_EQ(a.TotalWeight(), 130);
}

// ------------------------------------------------------- DecayedCountMin

TEST(DecayedCountMinTest, HalvesEveryHalfLife) {
  DecayedCountMin sketch(2048, 4, /*half_life=*/100.0, 1);
  sketch.UpdateAt(0, 42, 16);
  EXPECT_DOUBLE_EQ(sketch.Estimate(42), 16.0);
  sketch.Advance(100);
  EXPECT_DOUBLE_EQ(sketch.Estimate(42), 8.0);
  sketch.Advance(300);
  EXPECT_DOUBLE_EQ(sketch.Estimate(42), 2.0);
  EXPECT_DOUBLE_EQ(sketch.TotalWeight(), 2.0);
  // A fresh deposit is counted at full weight on the advanced clock.
  sketch.UpdateAt(300, 43, 4);
  EXPECT_DOUBLE_EQ(sketch.Estimate(43), 4.0);
}

TEST(DecayedCountMinTest, LateUpdatesClampToCurrentClock) {
  DecayedCountMin sketch(2048, 4, 50.0, 1);
  sketch.UpdateAt(1000, 1, 8);
  // A late arrival neither un-decays nor aborts: it lands "now".
  sketch.UpdateAt(10, 2, 8);
  EXPECT_EQ(sketch.last_timestamp(), 1000u);
  EXPECT_DOUBLE_EQ(sketch.Estimate(1), 8.0);
  EXPECT_DOUBLE_EQ(sketch.Estimate(2), 8.0);
}

TEST(DecayedCountMinTest, SurvivesRenormalizationOverManyHalfLives) {
  DecayedCountMin sketch(2048, 4, 1.0, 1);
  sketch.UpdateAt(0, 7, 1024);
  // March through thousands of half-lives in steps; the lazy scale must
  // renormalize instead of underflowing to garbage.
  for (uint64_t t = 50; t <= 5000; t += 50) sketch.Advance(t);
  EXPECT_NEAR(sketch.Estimate(7), 0.0, 1e-12);
  // The sketch still takes fresh weight at full value.
  sketch.UpdateAt(5000, 8, 3);
  EXPECT_DOUBLE_EQ(sketch.Estimate(8), 3.0);
  EXPECT_DOUBLE_EQ(sketch.TotalWeight(), 3.0);
}

TEST(DecayedCountMinTest, BatchedTimedIngestMatchesScalar) {
  SplitMix64 rng(41);
  std::vector<uint64_t> timestamps, items;
  uint64_t t = 0;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t r = rng.Next() % 10;
    if (r < 4) t += rng.Next() % 20;
    timestamps.push_back(r == 9 ? t / 2 : t);
    items.push_back(rng.Next() % 64);
  }
  DecayedCountMin scalar(1024, 4, 250.0, 3);
  for (size_t i = 0; i < items.size(); ++i) {
    scalar.UpdateAt(timestamps[i], items[i]);
  }
  DecayedCountMin batched(1024, 4, 250.0, 3);
  batched.UpdateBatchTimed(timestamps, items);
  for (uint64_t item = 0; item < 64; ++item) {
    EXPECT_DOUBLE_EQ(batched.Estimate(item), scalar.Estimate(item));
  }
  // The batch path shares one scale lookup per run, so the running total
  // can differ from the per-item accumulation by float rounding only.
  EXPECT_NEAR(batched.TotalWeight(), scalar.TotalWeight(),
              1e-9 * scalar.TotalWeight());
}

TEST(DecayedCountMinTest, SerializeRoundTripIsByteIdentical) {
  DecayedCountMin sketch(512, 4, 75.0, 9);
  SplitMix64 rng(43);
  for (uint64_t t = 0; t < 500; t += 5) {
    sketch.UpdateAt(t, rng.Next() % 50);
  }
  const std::vector<uint8_t> bytes = sketch.Serialize();
  Result<DecayedCountMin> restored = DecayedCountMin::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  // Counters ride in logical units, so the round trip is a fixpoint even
  // though the writer's internal scale differs from the reader's.
  EXPECT_EQ(restored.value().Serialize(), bytes);
  for (uint64_t item = 0; item < 50; ++item) {
    EXPECT_DOUBLE_EQ(restored.value().Estimate(item), sketch.Estimate(item));
  }
}

TEST(DecayedCountMinTest, MergeAlignsDecayClocks) {
  DecayedCountMin a(2048, 4, 100.0, 1);
  DecayedCountMin b(2048, 4, 100.0, 1);
  a.UpdateAt(0, 5, 8);
  b.UpdateAt(100, 5, 8);
  // Merging advances a to t=100, where its 8 has decayed to 4.
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.last_timestamp(), 100u);
  EXPECT_DOUBLE_EQ(a.Estimate(5), 12.0);
  DecayedCountMin c(2048, 4, 50.0, 1);
  EXPECT_EQ(c.Merge(a).code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------- ExponentialHistogram

TEST(ExponentialHistogramTest, RelativeErrorPropertyUnderRandomArrivals) {
  for (const double epsilon : {0.2, 0.1, 0.05}) {
    const uint64_t window = 1 << 12;
    ExponentialHistogram eh(window, epsilon);
    std::vector<uint64_t> arrivals;
    SplitMix64 rng(0x9E3779B97F4A7C15ull ^
                   static_cast<uint64_t>(epsilon * 1000));
    uint64_t t = 0;
    for (int i = 0; i < 20000; ++i) {
      t += rng.Next() % 5;
      arrivals.push_back(t);
      eh.Add(t);
      if (i % 1717 == 0) {
        const uint64_t exact = static_cast<uint64_t>(std::count_if(
            arrivals.begin(), arrivals.end(),
            [&](uint64_t a) { return a + window > t; }));
        const double estimate = static_cast<double>(eh.EstimateCount(t));
        EXPECT_LE(std::abs(estimate - static_cast<double>(exact)),
                  epsilon * static_cast<double>(exact) + 1.0)
            << "epsilon " << epsilon << " at i=" << i;
      }
    }
  }
}

TEST(ExponentialHistogramTest, SerializeRoundTripIsByteIdentical) {
  ExponentialHistogram eh(1000, 0.1);
  SplitMix64 rng(47);
  uint64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.Next() % 3;
    eh.Add(t);
  }
  const std::vector<uint8_t> bytes = eh.Serialize();
  Result<ExponentialHistogram> restored =
      ExponentialHistogram::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().Serialize(), bytes);
  EXPECT_EQ(restored.value().EstimateCount(t), eh.EstimateCount(t));
  EXPECT_EQ(restored.value().NumBuckets(), eh.NumBuckets());
}

// ------------------------------------------------- registry integration

class TimeRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterBuiltinSketches(); }
};

TEST_F(TimeRegistryTest, TimedFactoriesBuildAllFourTypes) {
  const SketchRegistry& registry = SketchRegistry::Global();
  for (const char* name :
       {"sliding_hyperloglog", "sliding_countmin", "decayed_countmin",
        "exponential_histogram"}) {
    const SketchRegistry::Entry* entry = registry.FindByName(name);
    ASSERT_NE(entry, nullptr) << name;
    ASSERT_TRUE(entry->make_timed != nullptr) << name;
    Result<AnySketch> made = entry->make_timed(TimedSketchParams{});
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().message();
    EXPECT_FALSE(made.value().EstimateSummary().empty());
  }
  // An untimed family has no timed factory.
  const SketchRegistry::Entry* hll = registry.FindByName("hyperloglog");
  ASSERT_NE(hll, nullptr);
  EXPECT_TRUE(hll->make_timed == nullptr);
}

TEST_F(TimeRegistryTest, TimedParamsAreValidatedPerFamily) {
  const SketchRegistry& registry = SketchRegistry::Global();
  // half_life on a pane-windowed type is rejected.
  TimedSketchParams bad;
  bad.half_life = 10.0;
  EXPECT_EQ(registry.FindByName("sliding_hyperloglog")
                ->make_timed(bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Window geometry on the decayed type is rejected.
  TimedSketchParams windowed;
  windowed.pane_width = 5;
  windowed.num_panes = 4;
  EXPECT_EQ(registry.FindByName("decayed_countmin")
                ->make_timed(windowed)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // And accepted where they belong.
  EXPECT_TRUE(
      registry.FindByName("sliding_countmin")->make_timed(windowed).ok());
  TimedSketchParams decayed;
  decayed.half_life = 60.0;
  EXPECT_TRUE(
      registry.FindByName("decayed_countmin")->make_timed(decayed).ok());
}

TEST_F(TimeRegistryTest, AnySketchTimedSurfaceRoundTrips) {
  TimedSketchParams params;
  params.pane_width = 10;
  params.num_panes = 6;
  Result<AnySketch> made = SketchRegistry::Global()
                               .FindByName("sliding_countmin")
                               ->make_timed(params);
  ASSERT_TRUE(made.ok());
  AnySketch& sketch = made.value();

  std::vector<uint64_t> timestamps, items;
  for (uint64_t i = 0; i < 200; ++i) {
    timestamps.push_back(i / 2);
    items.push_back(i % 16);
  }
  ASSERT_TRUE(sketch.UpdateBatchTimed(timestamps, items).ok());
  // Parallel-column contract.
  EXPECT_EQ(sketch
                .UpdateBatchTimed(std::span<const uint64_t>(timestamps)
                                      .subspan(0, 3),
                                  items)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(sketch.Advance(500).ok());
  // Through the registry deserializer the wire envelope yields the same
  // concrete type with the same windowed state.
  const std::vector<uint8_t> bytes = sketch.Serialize();
  Result<AnySketch> revived = SketchRegistry::Global().Deserialize(bytes);
  ASSERT_TRUE(revived.ok()) << revived.status().message();
  const SlidingCountMin* concrete = revived.value().As<SlidingCountMin>();
  ASSERT_NE(concrete, nullptr);
  EXPECT_EQ(concrete->last_timestamp(), 500u);
  EXPECT_EQ(revived.value().Serialize(), bytes);
}

TEST_F(TimeRegistryTest, UntimedSketchIgnoresTimestampColumn) {
  const SketchRegistry::Entry* entry =
      SketchRegistry::Global().FindByName("hyperloglog");
  ASSERT_NE(entry, nullptr);
  AnySketch sketch = entry->make_default();
  std::vector<uint64_t> timestamps = {1, 2, 3};
  std::vector<uint64_t> items = {10, 20, 30};
  ASSERT_TRUE(sketch.UpdateBatchTimed(timestamps, items).ok());
  EXPECT_EQ(sketch.Advance(99).code(), StatusCode::kUnimplemented);
}

// ----------------------------------------------- concurrent integration

TEST_F(TimeRegistryTest, ConcurrentRotationWithWaitFreeReaders) {
  TimedSketchParams params;
  params.pane_width = 8;
  params.num_panes = 4;
  ConcurrentAnySketch::Options options;
  options.max_threads = 4;
  Result<ConcurrentAnySketch> made = ConcurrentAnySketch::MakeTimedByName(
      "sliding_hyperloglog", params, options);
  ASSERT_TRUE(made.ok()) << made.status().message();
  ConcurrentAnySketch& sketch = made.value();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&sketch, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        // Epoch-published reads race against pane rotations; under TSan
        // this is the wait-free contract's proof.
        (void)sketch.EstimateWithBounds(0.95);
        (void)sketch.EstimateSummary();
      }
    });
  }
  std::vector<uint64_t> timestamps(64), items(64);
  for (uint64_t t = 0; t < 512; ++t) {
    for (size_t i = 0; i < items.size(); ++i) {
      timestamps[i] = t;
      items[i] = t * items.size() + i;
    }
    ASSERT_TRUE(sketch.ApplyBatchTimed(timestamps, items).ok());
  }
  ASSERT_TRUE(sketch.Advance(511).ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // Window = last 32 units: timestamps 480..511, 64 fresh items each.
  Result<gems::Estimate> estimate = sketch.EstimateWithBounds(0.95);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate.value().value, 32.0 * 64.0, 0.1 * 32.0 * 64.0);
}

TEST_F(TimeRegistryTest, ConcurrentTimedSketchSnapshotRoundTrips) {
  TimedSketchParams params;
  params.half_life = 128.0;
  Result<ConcurrentAnySketch> made = ConcurrentAnySketch::MakeTimedByName(
      "decayed_countmin", params, ConcurrentAnySketch::Options{});
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::vector<uint64_t> timestamps, items;
  for (uint64_t i = 0; i < 100; ++i) {
    timestamps.push_back(i);
    items.push_back(7);
  }
  ASSERT_TRUE(made.value().ApplyBatchTimed(timestamps, items).ok());
  Result<AnySketch> snapshot = made.value().Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const DecayedCountMin* concrete = snapshot.value().As<DecayedCountMin>();
  ASSERT_NE(concrete, nullptr);
  EXPECT_EQ(concrete->last_timestamp(), 99u);
  // 100 unit deposits at t = 0..99, each decayed to t = 99 with a 128-unit
  // half-life: sum over d of 2^(-d/128) for d in [0, 99] ~= 77.4.
  EXPECT_NEAR(concrete->Estimate(7), 77.4, 1.0);
}

}  // namespace
}  // namespace gems
