#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "common/numeric.h"
#include "core/estimate.h"
#include "core/registry.h"
#include "distributed/aggregation.h"
#include "distributed/concurrent/concurrent_any.h"
#include "distributed/concurrent/concurrent_summary.h"
#include "distributed/sharded_pipeline.h"
#include "distributed/spsc_ring.h"
#include "distributed/thread_pool.h"
#include "frequency/count_min.h"
#include "frequency/misra_gries.h"
#include "membership/bloom.h"
#include "quantiles/kll.h"
#include "server/keyspace.h"
#include "workload/baselines.h"
#include "workload/generators.h"

namespace gems {
namespace {

TEST(ShardOfTest, DeterministicAndInRange) {
  for (uint64_t item = 0; item < 1000; ++item) {
    const size_t shard = ShardOf(item, 16);
    EXPECT_LT(shard, 16u);
    EXPECT_EQ(shard, ShardOf(item, 16));
  }
}

TEST(ShardOfTest, RoughlyBalanced) {
  std::vector<int> counts(8, 0);
  for (uint64_t item = 0; item < 80000; ++item) counts[ShardOf(item, 8)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(AggregateTreeTest, SingleLeafPassthrough) {
  std::vector<HyperLogLog> leaves;
  leaves.emplace_back(10, 1);
  for (uint64_t item : DistinctItems(1000, 2)) leaves[0].Update(item);
  auto root = AggregateTree(std::move(leaves));
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value().Estimate(), 1000.0, 150.0);
}

TEST(AggregateTreeTest, EmptyLeavesRejected) {
  std::vector<HyperLogLog> leaves;
  EXPECT_FALSE(AggregateTree(std::move(leaves)).ok());
}

TEST(AggregateTreeTest, StatsTrackDepthAndMerges) {
  std::vector<HyperLogLog> leaves;
  for (int i = 0; i < 16; ++i) leaves.emplace_back(8, 3);
  AggregationStats stats;
  auto root = AggregateTree(std::move(leaves), 2, &stats);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(stats.tree_depth, 4);    // 16 -> 8 -> 4 -> 2 -> 1.
  EXPECT_EQ(stats.num_merges, 15u);  // n-1 merges total.
  EXPECT_GT(stats.communication_bytes, 0u);  // HLL is serializable.
}

TEST(AggregateTreeTest, HigherFanoutShallowerTree) {
  std::vector<HyperLogLog> a, b;
  for (int i = 0; i < 64; ++i) {
    a.emplace_back(8, 4);
    b.emplace_back(8, 4);
  }
  AggregationStats stats2, stats8;
  ASSERT_TRUE(AggregateTree(std::move(a), 2, &stats2).ok());
  ASSERT_TRUE(AggregateTree(std::move(b), 8, &stats8).ok());
  EXPECT_EQ(stats2.tree_depth, 6);
  EXPECT_EQ(stats8.tree_depth, 2);
  EXPECT_EQ(stats2.num_merges, stats8.num_merges);  // Always n-1.
}

// E6 core claim: merged accuracy == single-stream accuracy, for each
// mergeable sketch family.

TEST(MergeabilityTest, HllMergedEqualsStreamed) {
  const auto items = DistinctItems(200000, 5);
  HyperLogLog streamed(11, 6);
  std::vector<HyperLogLog> leaves;
  for (int i = 0; i < 64; ++i) leaves.emplace_back(11, 6);
  for (size_t i = 0; i < items.size(); ++i) {
    streamed.Update(items[i]);
    leaves[ShardOf(items[i], 64)].Update(items[i]);
  }
  auto merged = AggregateTree(std::move(leaves));
  ASSERT_TRUE(merged.ok());
  // Register-wise max is exact: merged must equal streamed exactly.
  EXPECT_DOUBLE_EQ(merged.value().Estimate(), streamed.Estimate());
}

TEST(MergeabilityTest, CountMinMergedEqualsStreamed) {
  ZipfGenerator zipf(10000, 1.2, 7);
  CountMinSketch streamed(512, 4, 8);
  std::vector<CountMinSketch> leaves;
  for (int i = 0; i < 32; ++i) leaves.emplace_back(512, 4, 8);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t item = zipf.Next();
    streamed.Update(item);
    leaves[i % 32].Update(item);
  }
  auto merged = AggregateTree(std::move(leaves), 4, nullptr);
  ASSERT_TRUE(merged.ok());
  for (uint64_t probe = 0; probe < 200; ++probe) {
    EXPECT_EQ(merged.value().Estimate(probe),
              streamed.Estimate(probe));
  }
}

TEST(MergeabilityTest, KllMergedErrorComparable) {
  const auto data = GenerateValues(ValueDistribution::kLogNormal, 128000, 9);
  KllSketch streamed(200, 10);
  std::vector<KllSketch> leaves;
  for (int i = 0; i < 128; ++i) leaves.emplace_back(200, 100 + i);
  ExactQuantiles exact;
  for (size_t i = 0; i < data.size(); ++i) {
    streamed.Update(data[i]);
    leaves[i % 128].Update(data[i]);
    exact.Update(data[i]);
  }
  auto merged = AggregateTree(std::move(leaves));
  ASSERT_TRUE(merged.ok());
  double streamed_err = 0, merged_err = 0;
  const double n = static_cast<double>(data.size());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double true_value = exact.Quantile(q);
    streamed_err +=
        std::abs(static_cast<double>(exact.Rank(streamed.Quantile(q))) -
                 static_cast<double>(exact.Rank(true_value))) /
        n;
    merged_err +=
        std::abs(static_cast<double>(exact.Rank(merged.value().Quantile(q))) -
                 static_cast<double>(exact.Rank(true_value))) /
        n;
  }
  // Merged error stays within a small factor of streamed error (both are
  // tiny); the key regression is merged error staying bounded.
  EXPECT_LT(merged_err / 5.0, 0.02);
  EXPECT_LT(streamed_err / 5.0, 0.02);
}

TEST(MergeabilityTest, MisraGriesMergedKeepsGuarantee) {
  ZipfGenerator zipf(50000, 1.4, 11);
  ExactFrequencies exact;
  std::vector<MisraGries> leaves;
  for (int i = 0; i < 16; ++i) leaves.emplace_back(100);
  const int64_t n = 160000;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t item = zipf.Next();
    exact.Update(item);
    leaves[i % 16].Update(item);
  }
  auto merged = AggregateTree(std::move(leaves));
  ASSERT_TRUE(merged.ok());
  // Undercount bounded by N/k even after 16-way merge.
  for (const auto& [item, count] : exact.TopK(10)) {
    EXPECT_LE(merged.value().Estimate(item), count);
    EXPECT_GE(merged.value().Estimate(item) +
                  merged.value().ErrorBound(),
              count);
  }
}

// ------------------------------------------------------ Concurrent wrapper
//
// The wrapper under test is the wait-free local-buffer/propagator design:
// per-thread buffered deltas folded into an epoch-published global. The
// contracts pinned here: read-your-writes snapshots, residual folding on
// thread exit, bounded-threads overflow correctness, wait-free reads, and
// quiesced byte-identity with sequential ingest.

static_assert(
    ConcurrentEstimableSummary<ConcurrentSummary<HyperLogLog>>,
    "the concurrent HLL wrapper must satisfy the engine-facing concept");
static_assert(
    !ConcurrentEstimableSummary<HyperLogLog>,
    "a plain sketch (no FlushLocal/epoch) must not satisfy the concept");
static_assert(
    !ConcurrentEstimableSummary<ConcurrentSummary<CountMinSketch>>,
    "no no-arg Estimate() on Count-Min, so no wait-free cached estimate");

TEST(ConcurrentSummaryTest, SingleThreadMatchesPlain) {
  // Snapshot() folds the calling thread's residual (read-your-writes), so
  // a single-threaded run is byte-identical to a plain sketch — even with
  // items still sitting in the local buffer.
  HyperLogLog plain(11, 5);
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(11, 5));
  for (uint64_t item : DistinctItems(50000, 6)) {
    plain.Update(item);
    concurrent.Update(item);
  }
  EXPECT_EQ(concurrent.Snapshot().value().Serialize(), plain.Serialize());
  EXPECT_DOUBLE_EQ(concurrent.Snapshot().value().Estimate(), plain.Estimate());
}

TEST(ConcurrentSummaryTest, MultiThreadedUpdatesAllLand) {
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(12, 7));
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      for (uint64_t item :
           DistinctItems(kPerThread, 1000 + static_cast<uint64_t>(t))) {
        concurrent.Update(item);
      }
    });
  }
  // Joined threads ran their exit hooks, so every residual is folded.
  for (std::thread& thread : threads) thread.join();
  const double expected = kThreads * kPerThread;
  EXPECT_NEAR(concurrent.Snapshot().value().Estimate(), expected, 0.06 * expected);
}

TEST(ConcurrentSummaryTest, SnapshotWhileWriting) {
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(10, 8));
  std::thread writer([&concurrent] {
    for (uint64_t item : DistinctItems(200000, 9)) concurrent.Update(item);
  });
  // Published versions are supersets of their predecessors, so concurrent
  // snapshots must be monotone non-decreasing and never crash.
  double last = 0;
  int decreases = 0;
  for (int i = 0; i < 50; ++i) {
    const double now = concurrent.Snapshot().value().Estimate();
    if (now + 1e-9 < last) ++decreases;
    last = now;
  }
  writer.join();
  EXPECT_EQ(decreases, 0);
  EXPECT_NEAR(concurrent.Snapshot().value().Estimate(), 200000.0, 0.07 * 200000);
}

TEST(ConcurrentSummaryTest, OptionsResolveSlotsAndThresholds) {
  const HyperLogLog prototype(10, 1);
  // Explicit slot counts are honored exactly (tests and benches rely on
  // forcing the overflow path with max_threads=1).
  EXPECT_EQ(ConcurrentSummary<HyperLogLog>(prototype, {.max_threads = 1})
                .max_threads(),
            1u);
  EXPECT_EQ(ConcurrentSummary<HyperLogLog>(prototype, {.max_threads = 3})
                .max_threads(),
            3u);
  // 0 = auto: at least kMinSlots (room for thread churn), at most kMaxSlots.
  const size_t auto_slots =
      ConcurrentSummary<HyperLogLog>(prototype).max_threads();
  EXPECT_GE(auto_slots, ConcurrentSummary<HyperLogLog>::kMinSlots);
  EXPECT_LE(auto_slots, ConcurrentSummary<HyperLogLog>::kMaxSlots);
  // Oversized requests clamp to the maximum.
  EXPECT_EQ(
      ConcurrentSummary<HyperLogLog>(prototype, {.max_threads = 100000})
          .max_threads(),
      ConcurrentSummary<HyperLogLog>::kMaxSlots);
  // Derived thresholds: propagate defaults to the buffer size, the hard
  // pending cap to 8x propagate.
  const ConcurrentSummary<HyperLogLog> derived(prototype,
                                               {.buffer_items = 512});
  EXPECT_EQ(derived.options().propagate_items, 512u);
  EXPECT_EQ(derived.options().max_pending_items, 8 * 512u);
}

TEST(ConcurrentSummaryTest, BatchDrainMatchesPerItem) {
  // UpdateBatch through the wrapper must land the same state as a plain
  // sketch fed the same stream: register-max is partition- and
  // order-independent, so the folded global is byte-identical no matter
  // how the drains interleaved with propagation.
  HyperLogLog plain(11, 5);
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(11, 5));
  const auto items = DistinctItems(50000, 6);
  std::span<const uint64_t> span(items);
  for (size_t offset = 0; offset < span.size(); offset += 1000) {
    concurrent.UpdateBatch(span.subspan(offset, 1000));
  }
  plain.UpdateBatch(span);
  EXPECT_EQ(concurrent.Snapshot().value().Serialize(), plain.Serialize());
}

TEST(ConcurrentSummaryTest, MultiThreadedBatchesAllLand) {
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(12, 7));
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      const auto items =
          DistinctItems(kPerThread, 2000 + static_cast<uint64_t>(t));
      std::span<const uint64_t> span(items);
      for (size_t offset = 0; offset < span.size(); offset += 4096) {
        concurrent.UpdateBatch(
            span.subspan(offset, std::min<size_t>(4096, span.size() - offset)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double expected = kThreads * kPerThread;
  EXPECT_NEAR(concurrent.Snapshot().value().Estimate(), expected, 0.06 * expected);
}

TEST(ConcurrentSummaryTest, ThreadChurnRecyclesSlotsAndFoldsResiduals) {
  // The satellite fix for the old design's first-touch token leak: an
  // exiting thread must return its slot AND fold its residual buffered
  // state. 50 short-lived threads against 2 slots — if slots leaked, later
  // threads would still be correct (overflow path) but if residuals were
  // dropped the final count would collapse, since 1000 items never fill
  // the 256-item propagation threshold's 8x hard cap.
  ConcurrentSummary<HyperLogLog> concurrent(
      HyperLogLog(12, 21), {.buffer_items = 256, .max_threads = 2});
  constexpr int kRounds = 50;
  constexpr uint64_t kPerRound = 1000;
  for (int round = 0; round < kRounds; ++round) {
    std::thread worker([&concurrent, round] {
      for (uint64_t item : DistinctItems(
               kPerRound, 7000 + static_cast<uint64_t>(round))) {
        concurrent.Update(item);
      }
    });
    worker.join();
  }
  const double expected = kRounds * kPerRound;
  EXPECT_NEAR(concurrent.Snapshot().value().Estimate(), expected, 0.06 * expected);
}

TEST(ConcurrentSummaryTest, OverflowThreadsFallBackCorrectly) {
  // One writer slot, two concurrent writers: whichever loses the slot race
  // takes the locked overflow path on the global. Every item must land.
  ConcurrentSummary<HyperLogLog> concurrent(
      HyperLogLog(12, 22), {.buffer_items = 64, .max_threads = 1});
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&concurrent, t] {
      for (uint64_t item :
           DistinctItems(kPerThread, 8000 + static_cast<uint64_t>(t))) {
        concurrent.Update(item);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double expected = 2 * kPerThread;
  EXPECT_NEAR(concurrent.Snapshot().value().Estimate(), expected, 0.07 * expected);
}

TEST(ConcurrentSummaryTest, EstimateAndBoundsAreWaitFreeViews) {
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(12, 23));
  const uint64_t epoch_before = concurrent.epoch();
  for (uint64_t item : DistinctItems(100000, 24)) concurrent.Update(item);
  concurrent.FlushLocal();
  // Estimate() is the atomically cached value of the published version.
  EXPECT_GT(concurrent.epoch(), epoch_before);
  EXPECT_NEAR(concurrent.Estimate(), 100000.0, 0.05 * 100000);
  const Estimate bounds = concurrent.EstimateWithBounds(0.95);
  EXPECT_LE(bounds.lower, bounds.value);
  EXPECT_GE(bounds.upper, bounds.value);
  EXPECT_NEAR(bounds.value, concurrent.Estimate(), 1e-9);
  // Query() runs arbitrary reads against the pinned published version.
  const int precision =
      concurrent.Query([](const HyperLogLog& s) { return s.precision(); });
  EXPECT_EQ(precision, 12);
}

TEST(ConcurrentSummaryTest, QuiescedSnapshotBytesMatchSequentialHll) {
  // The determinism satellite: once writers join (exit hooks fold every
  // residual), the concurrent sketch's serialized bytes must equal a
  // sequential sketch fed the same stream — register max is partition-
  // independent, so any 4-way split of the items works.
  const auto items = DistinctItems(120000, 25);
  HyperLogLog sequential(12, 26);
  sequential.UpdateBatch(items);
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(12, 26),
                                            {.buffer_items = 512});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&concurrent, &items, t] {
      for (size_t i = t; i < items.size(); i += 4) {
        concurrent.Update(items[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(concurrent.Snapshot().value().Serialize(),
            sequential.Serialize());
}

TEST(ConcurrentSummaryTest, QuiescedSnapshotBytesMatchSequentialCountMin) {
  // Counter addition is partition-independent too; the delta-fold must
  // not double-count (locals reset to the empty prototype after a fold).
  const auto items = ZipfGenerator(50000, 1.2, 27).Take(200000);
  CountMinSketch sequential(1024, 4, 28);
  sequential.UpdateBatch(items);
  ConcurrentSummary<CountMinSketch> concurrent(CountMinSketch(1024, 4, 28),
                                               {.buffer_items = 512});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&concurrent, &items, t] {
      for (size_t i = t; i < items.size(); i += 4) {
        concurrent.Update(items[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  auto snapshot = concurrent.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().Serialize(), sequential.Serialize());
  // Point queries flow through Query() against the published version.
  concurrent.FlushLocal();
  for (uint64_t probe = 0; probe < 100; ++probe) {
    const auto est = concurrent.Query(
        [probe](const CountMinSketch& s) { return s.Estimate(probe); });
    EXPECT_EQ(est, sequential.Estimate(probe));
  }
}

TEST(ConcurrentSummaryTest, ValueSummariesBufferDoubles) {
  // KLL exercises the double-buffered value path (Update(double),
  // UpdateBatch(span<const double>)); every value must be counted.
  ConcurrentSummary<KllSketch> concurrent(KllSketch(200, 29));
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(static_cast<double>(i));
  for (double v : values) concurrent.Update(v);
  concurrent.UpdateBatch(std::span<const double>(values));
  auto snapshot = concurrent.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().Count(), 20000u);
  EXPECT_NEAR(snapshot.value().Quantile(0.5), 5000.0, 500.0);
}

// Serializes the active copy, flips the epoch with a no-op write, and
// serializes the other copy: the two copies must be byte-identical.
template <typename Live>
void ExpectCopiesIdentical(Live& live, const std::function<Status()>& noop) {
  live.FlushLocal();
  const uint64_t e = live.epoch();
  auto first = live.Snapshot();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(live.epoch(), e);
  ASSERT_TRUE(noop().ok());
  ASSERT_EQ(live.epoch(), e + 1);
  auto second = live.Snapshot();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().Serialize(), second.value().Serialize());
}

template <typename S>
void ExpectCopiesIdentical(ConcurrentSummary<S>& live) {
  ExpectCopiesIdentical(
      live, [&] { return live.FoldExternal([](S&) { return Status::Ok(); }); });
}

void ExpectCopiesIdentical(ConcurrentAnySketch& live) {
  ExpectCopiesIdentical(live, [&] { return live.ApplyBatch({}); });
}

TEST(ConcurrentSummaryTest, WritesKeepBothCopiesByteIdentical) {
  // Every write runs once per copy; after each kind of write the copy it
  // was applied to first and the copy it was replayed on must agree.
  const auto items = DistinctItems(20000, 30);
  const std::span<const uint64_t> span(items);
  ConcurrentSummary<HyperLogLog> hll(HyperLogLog(12, 31),
                                     {.buffer_items = 512, .max_threads = 1});
  for (uint64_t item : span.first(3000)) hll.Update(item);  // Slot folds.
  ExpectCopiesIdentical(hll);
  hll.UpdateBatch(span.subspan(3000, 3000));
  ExpectCopiesIdentical(hll);
  HyperLogLog delta(12, 31);
  delta.UpdateBatch(span.subspan(6000, 3000));
  ASSERT_TRUE(hll.MergeDelta(delta).ok());
  ExpectCopiesIdentical(hll);
  // The only slot is taken, so another thread takes the overflow paths:
  // queued single items and direct batches.
  std::thread overflow([&] {
    for (uint64_t item : span.subspan(9000, 1000)) hll.Update(item);
    hll.UpdateBatch(span.subspan(10000, 3000));
  });
  overflow.join();
  ExpectCopiesIdentical(hll);
  HyperLogLog all(12, 31);
  all.UpdateBatch(span.first(13000));
  EXPECT_EQ(hll.Snapshot().value().Serialize(), all.Serialize());
  EXPECT_DOUBLE_EQ(hll.Estimate(), all.Estimate());

  // KLL compacts with its own RNG; the replay must draw the same bits, or
  // the copies drift apart at a later compaction.
  ConcurrentSummary<KllSketch> kll(KllSketch(64, 32), {.buffer_items = 256});
  for (int round = 0; round < 8; ++round) {
    std::vector<double> values;
    for (int i = 0; i < 3000; ++i) values.push_back(round * 3000.0 + i);
    for (double v : std::span<const double>(values).first(1000)) {
      kll.Update(v);
    }
    kll.UpdateBatch(std::span<const double>(values).subspan(1000, 1000));
    KllSketch peer(64, 33 + round);
    peer.UpdateBatch(std::span<const double>(values).subspan(2000));
    ASSERT_TRUE(kll.MergeDelta(peer).ok());
    ExpectCopiesIdentical(kll);
  }
  EXPECT_EQ(kll.Snapshot().value().Count(), 24000u);
}

TEST(ConcurrentAnySketchTest, WritesKeepBothCopiesByteIdentical) {
  RegisterBuiltinSketches();
  const auto items = DistinctItems(60000, 34);
  const std::span<const uint64_t> span(items);
  TimedSketchParams window;
  window.pane_width = 100;
  window.num_panes = 4;
  for (const char* name : {"hllpp", "count_min", "sliding_hyperloglog"}) {
    SCOPED_TRACE(name);
    const bool timed = std::string(name) == "sliding_hyperloglog";
    auto made = timed ? ConcurrentAnySketch::MakeTimedByName(name, window)
                      : ConcurrentAnySketch::MakeByName(name);
    ASSERT_TRUE(made.ok());
    ConcurrentAnySketch& live = made.value();
    // The first writes leave the shared prototype state; later ones
    // replay on the former active copy.
    for (size_t off = 0; off < 8000; off += 2000) {
      ASSERT_TRUE(live.ApplyBatch(span.subspan(off, 2000)).ok());
      ExpectCopiesIdentical(live);
    }
    std::vector<uint64_t> timestamps(4000);
    for (size_t i = 0; i < timestamps.size(); ++i) timestamps[i] = i / 10;
    ASSERT_TRUE(
        live.ApplyBatchTimed(timestamps, span.subspan(8000, 4000)).ok());
    ExpectCopiesIdentical(live);
    if (timed) {
      ASSERT_TRUE(live.Advance(450).ok());
      ExpectCopiesIdentical(live);
    }
    live.UpdateBatch(span.subspan(12000, 4000));  // Slot path.
    ExpectCopiesIdentical(live);
    AnySketch peer = live.Snapshot().value();
    ASSERT_TRUE(peer.UpdateBatch(span.subspan(16000, 4000)).ok());
    ASSERT_TRUE(live.Merge(peer).ok());
    ExpectCopiesIdentical(live);
    const std::vector<uint8_t> bytes = peer.Serialize();
    Result<AnySketchView> view =
        SketchRegistry::Global().Wrap(ByteSpan(bytes));
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(live.MergeFromView(view.value().sketch_view()).ok());
    ExpectCopiesIdentical(live);
    // Reset runs its write on both copies too: a moved-from state would
    // leave the second copy empty.
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(live.ApplyBatch(span.subspan(20000 + i * 100, 100)).ok());
    }
    ASSERT_TRUE(live.Reset(peer).ok());
    ExpectCopiesIdentical(live);
    EXPECT_EQ(live.Snapshot().value().Serialize(), bytes);
  }
}

TEST(ConcurrentSummaryTest, RefusedWriteLeavesEpochAndCopiesUnchanged) {
  CountMinSketch heavy(64, 4, 9);
  heavy.Update(7, INT64_MAX / 2 + 1);
  const std::vector<uint8_t> bytes = heavy.Serialize();
  ConcurrentSummary<CountMinSketch> live(CountMinSketch(64, 4, 9));
  ASSERT_TRUE(live.MergeDelta(heavy).ok());
  const uint64_t e = live.epoch();
  // A second merge wraps the total weight: refused before any counter
  // moves.
  EXPECT_EQ(live.MergeDelta(heavy).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(live.epoch(), e);
  // A write that mutates and then refuses: the standby is re-synced.
  EXPECT_EQ(live.FoldExternal([](CountMinSketch& copy) {
                  copy.Update(1, 5);
                  return Status::InvalidArgument("refused after a write");
                })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live.epoch(), e);
  EXPECT_EQ(live.Snapshot().value().Serialize(), bytes);
  ExpectCopiesIdentical(live);
  EXPECT_EQ(live.Snapshot().value().Serialize(), bytes);
}

TEST(ConcurrentAnySketchTest, ApplyBatchMutatesInPlace) {
  // Once both copies own their state, a write mutates each in place: the
  // active copy's sketch has the same address two epochs later, and it
  // shares its state with no other handle (a copy-on-write clone per write
  // would leave it shared with the state the next write clones from).
  RegisterBuiltinSketches();
  auto made = ConcurrentAnySketch::MakeByName("hllpp");
  ASSERT_TRUE(made.ok());
  ConcurrentAnySketch& live = made.value();
  const auto items = DistinctItems(40000, 35);
  const std::span<const uint64_t> span(items);
  auto address = [&] {
    return live.Query([](const AnySketch& s) {
      return static_cast<const void*>(s.As<HllPlusPlus>());
    });
  };
  ASSERT_TRUE(live.ApplyBatch(span.first(64)).ok());
  ASSERT_TRUE(live.ApplyBatch(span.subspan(64, 64)).ok());
  for (size_t off = 128; off + 128 <= span.size(); off += 128) {
    const uint64_t e = live.epoch();
    const void* before = address();
    ASSERT_NE(before, nullptr);
    ASSERT_TRUE(live.ApplyBatch(span.subspan(off, 64)).ok());
    ASSERT_TRUE(live.ApplyBatch(span.subspan(off + 64, 64)).ok());
    ASSERT_EQ(live.epoch(), e + 2);
    ASSERT_EQ(address(), before);
    ASSERT_FALSE(
        live.Query([](const AnySketch& s) { return s.shares_state(); }));
  }
  const HllPlusPlus* hll = live.Snapshot().value().As<HllPlusPlus>();
  ASSERT_NE(hll, nullptr);
  EXPECT_FALSE(hll->IsSparse());
}

TEST(ConcurrentAnySketchTest, RestoreThenUpdatesMatchesLiveKeyspace) {
  // A restored key's two copies share the checkpointed state; the UPDATEs
  // after it must land exactly as they do on the keyspace it came from.
  RegisterBuiltinSketches();
  server::Keyspace original;
  TimedSketchParams window;
  window.pane_width = 50;
  window.num_panes = 4;
  ASSERT_TRUE(original.Create("reach", "hllpp").ok());
  ASSERT_TRUE(original.Create("flows", "count_min").ok());
  ASSERT_TRUE(original.Create("recent", "sliding_hyperloglog", window).ok());
  const auto items = DistinctItems(30000, 36);
  const std::span<const uint64_t> span(items);
  std::vector<uint64_t> timestamps(span.size());
  for (size_t i = 0; i < timestamps.size(); ++i) timestamps[i] = i / 100;
  const std::span<const uint64_t> ts(timestamps);
  auto update = [&](server::Keyspace& keyspace, size_t off, size_t n) {
    ASSERT_TRUE(keyspace.Update("reach", span.subspan(off, n)).ok());
    ASSERT_TRUE(keyspace.Update("flows", span.subspan(off, n)).ok());
    ASSERT_TRUE(keyspace
                    .Update("recent", span.subspan(off, n), ts.subspan(off, n))
                    .ok());
  };
  auto checkpoint = [](const server::Keyspace& keyspace) {
    std::vector<uint8_t> image;
    ByteSink sink(&image);
    EXPECT_TRUE(keyspace.Checkpoint(sink).ok());
    return image;
  };
  for (size_t off = 0; off < 10000; off += 1000) update(original, off, 1000);
  const std::vector<uint8_t> image = checkpoint(original);
  server::Keyspace restored;
  ASSERT_TRUE(restored.Restore(ByteSpan(image)).ok());
  EXPECT_EQ(checkpoint(restored), image);
  for (size_t off = 10000; off < span.size(); off += 64) {
    const size_t n = std::min<size_t>(64, span.size() - off);
    update(original, off, n);
    update(restored, off, n);
  }
  EXPECT_EQ(checkpoint(restored), checkpoint(original));
}

TEST(ConcurrentAnySketchTest, TypeErasedConcurrentMatchesSequential) {
  RegisterBuiltinSketches();
  auto live = ConcurrentAnySketch::MakeByName("hyperloglog");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().type(), SketchTypeId::kHyperLogLog);
  // Sequential reference built from the same registry default prototype.
  AnySketch sequential =
      SketchRegistry::Global().FindByName("hyperloglog")->make_default();
  const auto items = DistinctItems(80000, 32);
  ASSERT_TRUE(sequential.UpdateBatch(items).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&live, &items, t] {
      std::span<const uint64_t> span(items);
      for (size_t off = t * 1024; off < span.size(); off += 4 * 1024) {
        live.value().UpdateBatch(
            span.subspan(off, std::min<size_t>(1024, span.size() - off)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  auto snapshot = live.value().Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().Serialize(), sequential.Serialize());
  EXPECT_EQ(live.value().EstimateSummary(), sequential.EstimateSummary());
}

TEST(ConcurrentAnySketchTest, RejectsEmptyAndUnknown) {
  RegisterBuiltinSketches();
  EXPECT_FALSE(ConcurrentAnySketch::Make(AnySketch()).ok());
  EXPECT_FALSE(ConcurrentAnySketch::MakeByName("no-such-sketch").ok());
}

// ------------------------------------------------------------- Thread pool

TEST(ThreadPoolTest, RunAllExecutesEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitWithWaitGroup) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  WaitGroup done;
  done.Add(10);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter, &done] {
      counter.fetch_add(1);
      done.Done();
    });
  }
  done.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, QueuedTasksRunBeforeShutdown) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // Destructor joins after the queue drains.
  EXPECT_EQ(counter.load(), 50);
}

// --------------------------------------------------------------- SPSC ring

TEST(SpscRingTest, FifoOrderAndCapacityBound) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));  // Full.
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));  // Empty.
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(100).capacity(), 128u);
}

TEST(SpscRingTest, CrossThreadTransferDeliversEverything) {
  SpscRing<uint64_t> ring(16);
  constexpr uint64_t kCount = 100000;
  uint64_t sum = 0;
  std::thread consumer([&ring, &sum] {
    uint64_t value;
    for (uint64_t received = 0; received < kCount;) {
      if (ring.TryPop(&value)) {
        sum += value;
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (uint64_t i = 1; i <= kCount; ++i) {
    while (!ring.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

// ------------------------------------------------- Parallel aggregate tree

TEST(ParallelAggregateTreeTest, HllRootByteIdenticalToSequential) {
  ThreadPool pool(4);
  const auto items = DistinctItems(100000, 31);
  std::vector<HyperLogLog> seq_leaves, par_leaves;
  for (int i = 0; i < 32; ++i) {
    seq_leaves.emplace_back(12, 32);
    par_leaves.emplace_back(12, 32);
  }
  const InvariantMod shards(32);
  for (uint64_t item : items) {
    const size_t shard = ShardOf(item, shards);
    seq_leaves[shard].Update(item);
    par_leaves[shard].Update(item);
  }
  auto seq = AggregateTree(std::move(seq_leaves), 2, nullptr);
  auto par = ParallelAggregateTree(std::move(par_leaves), 2, &pool);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(seq.value().Serialize(), par.value().Serialize());
}

TEST(ParallelAggregateTreeTest, CountMinRootByteIdenticalToSequential) {
  ThreadPool pool(4);
  ZipfGenerator zipf(50000, 1.2, 33);
  std::vector<CountMinSketch> seq_leaves, par_leaves;
  for (int i = 0; i < 24; ++i) {  // Not a power of two: ragged last group.
    seq_leaves.emplace_back(1024, 4, 34);
    par_leaves.emplace_back(1024, 4, 34);
  }
  for (int i = 0; i < 100000; ++i) {
    const uint64_t item = zipf.Next();
    seq_leaves[i % 24].Update(item);
    par_leaves[i % 24].Update(item);
  }
  auto seq = AggregateTree(std::move(seq_leaves), 3, nullptr);
  auto par = ParallelAggregateTree(std::move(par_leaves), 3, &pool);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(seq.value().Serialize(), par.value().Serialize());
}

TEST(ParallelAggregateTreeTest, KllRootByteIdenticalToSequential) {
  ThreadPool pool(4);
  const auto data = GenerateValues(ValueDistribution::kLogNormal, 64000, 35);
  std::vector<KllSketch> seq_leaves, par_leaves;
  for (int i = 0; i < 16; ++i) {
    seq_leaves.emplace_back(200, 800 + i);
    par_leaves.emplace_back(200, 800 + i);
  }
  for (size_t i = 0; i < data.size(); ++i) {
    seq_leaves[i % 16].Update(data[i]);
    par_leaves[i % 16].Update(data[i]);
  }
  auto seq = AggregateTree(std::move(seq_leaves), 2, nullptr);
  auto par = ParallelAggregateTree(std::move(par_leaves), 2, &pool);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(seq.value().Serialize(), par.value().Serialize());
}

TEST(ParallelAggregateTreeTest, StatsMatchSequentialDepthAndMerges) {
  ThreadPool pool(2);
  std::vector<HyperLogLog> leaves;
  for (int i = 0; i < 16; ++i) leaves.emplace_back(8, 3);
  AggregationStats stats;
  auto root = ParallelAggregateTree(std::move(leaves), 2, &pool, &stats);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(stats.tree_depth, 4);    // Same tree shape as AggregateTree.
  EXPECT_EQ(stats.num_merges, 15u);  // n-1 merges total.
  // Communication accounting stays on the sequential reference path.
  EXPECT_EQ(stats.communication_bytes, 0u);
}

TEST(ParallelAggregateTreeTest, EmptyLeavesRejected) {
  ThreadPool pool(2);
  std::vector<HyperLogLog> leaves;
  EXPECT_FALSE(ParallelAggregateTree(std::move(leaves), 2, &pool).ok());
}

TEST(ParallelAggregateTreeTest, MergeErrorPropagates) {
  ThreadPool pool(2);
  std::vector<HyperLogLog> leaves;
  leaves.emplace_back(10, 1);
  leaves.emplace_back(12, 1);  // Mismatched precision: Merge must fail.
  auto root = ParallelAggregateTree(std::move(leaves), 2, &pool);
  EXPECT_FALSE(root.ok());
}

// --------------------------------------------------------- Sharded pipeline

TEST(ShardedPipelineTest, HllMatchesSequentialIngestByteForByte) {
  const auto items = DistinctItems(200000, 41);
  HyperLogLog sequential(12, 42);
  sequential.UpdateBatch(items);
  ShardedPipeline<HyperLogLog> pipeline(HyperLogLog(12, 42),
                                        {.num_workers = 4});
  EXPECT_EQ(pipeline.num_workers(), 4u);
  pipeline.Push(items);
  auto root = pipeline.Finish();
  ASSERT_TRUE(root.ok());
  // Register-wise max is partition-independent: the merged root must be
  // byte-identical to single-threaded ingest, so Estimate() is equal too.
  EXPECT_EQ(root.value().Serialize(), sequential.Serialize());
  EXPECT_DOUBLE_EQ(root.value().Estimate(), sequential.Estimate());
}

TEST(ShardedPipelineTest, CountMinMatchesSequentialIngest) {
  const auto items = ZipfGenerator(100000, 1.2, 43).Take(300000);
  CountMinSketch sequential(2048, 4, 44);
  sequential.UpdateBatch(items);
  ShardedPipeline<CountMinSketch> pipeline(CountMinSketch(2048, 4, 44),
                                           {.num_workers = 4});
  pipeline.Push(items);
  auto root = pipeline.Finish();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().Serialize(), sequential.Serialize());
  for (uint64_t probe = 0; probe < 500; ++probe) {
    EXPECT_EQ(root.value().Estimate(probe), sequential.Estimate(probe));
  }
}

TEST(ShardedPipelineTest, BloomMatchesSequentialIngest) {
  const auto items = DistinctItems(100000, 45);
  BloomFilter sequential(1 << 20, 7, 46);
  sequential.InsertBatch(items);
  ShardedPipeline<BloomFilter> pipeline(BloomFilter(1 << 20, 7, 46),
                                        {.num_workers = 4});
  pipeline.Push(items);
  auto root = pipeline.Finish();
  ASSERT_TRUE(root.ok());
  // Bit OR is partition-independent.
  EXPECT_EQ(root.value().Serialize(), sequential.Serialize());
}

TEST(ShardedPipelineTest, KllSeesEveryValue) {
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) values.push_back(static_cast<double>(i));
  ShardedPipeline<KllSketch> pipeline(KllSketch(200, 47), {.num_workers = 4});
  pipeline.Push(values);
  auto root = pipeline.Finish();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().Count(), 100000u);
  EXPECT_NEAR(root.value().Quantile(0.5), 50000.0, 2000.0);
}

TEST(ShardedPipelineTest, ManySmallPushesWithBackpressure) {
  // Tiny rings and chunks force the producer through the full/backoff path.
  const auto items = DistinctItems(50000, 48);
  HyperLogLog sequential(11, 49);
  sequential.UpdateBatch(items);
  ShardedPipeline<HyperLogLog> pipeline(
      HyperLogLog(11, 49),
      {.num_workers = 3, .ring_capacity = 2, .chunk_items = 64});
  std::span<const uint64_t> span(items);
  for (size_t off = 0; off < span.size(); off += 777) {
    pipeline.Push(span.subspan(off, std::min<size_t>(777, span.size() - off)));
  }
  auto root = pipeline.Finish();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().Serialize(), sequential.Serialize());
}

TEST(ShardedPipelineTest, DestructorWithoutFinishDoesNotHang) {
  const auto items = DistinctItems(10000, 50);
  ShardedPipeline<HyperLogLog> pipeline(HyperLogLog(10, 51),
                                        {.num_workers = 2});
  pipeline.Push(items);
  // No Finish(): the destructor must stop and join the workers cleanly.
}

TEST(ShardedPipelineTest, PinnedWorkersMatchUnpinnedByteForByte) {
  // Pinning and first-touch shard placement are pure placement hints: the
  // merged root must be byte-identical to the unpinned pipeline and to
  // sequential ingest.
  const auto items = DistinctItems(150000, 53);
  HyperLogLog sequential(12, 54);
  sequential.UpdateBatch(items);
  ShardedPipeline<HyperLogLog> pinned(
      HyperLogLog(12, 54), {.num_workers = 4, .pin_workers = true});
  // Best-effort: on a restricted cpuset some pins may fail, but never more
  // than the worker count.
  EXPECT_LE(pinned.pinned_workers(), pinned.num_workers());
  pinned.Push(items);
  auto pinned_root = pinned.Finish();
  ASSERT_TRUE(pinned_root.ok());

  ShardedPipeline<HyperLogLog> unpinned(HyperLogLog(12, 54),
                                        {.num_workers = 4});
  EXPECT_EQ(unpinned.pinned_workers(), 0u);
  unpinned.Push(items);
  auto unpinned_root = unpinned.Finish();
  ASSERT_TRUE(unpinned_root.ok());

  EXPECT_EQ(pinned_root.value().Serialize(), sequential.Serialize());
  EXPECT_EQ(unpinned_root.value().Serialize(), sequential.Serialize());
}

TEST(ShardedPipelineTest, PinOffsetAndBackpressureStillExact) {
  // A nonzero pin offset wraps modulo the hardware concurrency; combined
  // with tiny rings (backpressure path) the result must stay exact.
  const auto items = ZipfGenerator(50000, 1.2, 55).Take(120000);
  CountMinSketch sequential(1024, 4, 56);
  sequential.UpdateBatch(items);
  ShardedPipeline<CountMinSketch> pipeline(CountMinSketch(1024, 4, 56),
                                           {.num_workers = 3,
                                            .ring_capacity = 2,
                                            .chunk_items = 64,
                                            .pin_workers = true,
                                            .pin_offset = 1});
  pipeline.Push(items);
  auto root = pipeline.Finish();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().Serialize(), sequential.Serialize());
}

TEST(ShardedPipelineTest, BlockedLayoutShardsMatchSequential) {
  // The pipeline's shards inherit the prototype's blocked layout; counter
  // sums stay partition-independent, so the merged root is byte-identical
  // to sequential blocked ingest.
  const auto items = ZipfGenerator(50000, 1.2, 57).Take(120000);
  CountMinSketch prototype(1024, 4, 58, /*conservative_update=*/false,
                           SketchLayout::kBlocked);
  CountMinSketch sequential = prototype;
  sequential.UpdateBatch(items);
  ShardedPipeline<CountMinSketch> pipeline(prototype, {.num_workers = 4});
  pipeline.Push(items);
  auto root = pipeline.Finish();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().layout(), SketchLayout::kBlocked);
  EXPECT_EQ(root.value().Serialize(), sequential.Serialize());
}

// ----------------------------------------- Concurrent wrapper stress tests

TEST(ConcurrentSummaryTest, ConcurrentBatchesAndSnapshotsStress) {
  // Writers drain batches while a reader snapshots continuously; the final
  // snapshot must account for every item from every writer.
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(12, 52));
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 100000;
  std::atomic<bool> writing{true};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&concurrent, t] {
      const auto items =
          DistinctItems(kPerWriter, 5000 + static_cast<uint64_t>(t));
      std::span<const uint64_t> span(items);
      for (size_t off = 0; off < span.size(); off += 2048) {
        concurrent.UpdateBatch(
            span.subspan(off, std::min<size_t>(2048, span.size() - off)));
      }
    });
  }
  std::thread reader([&concurrent, &writing] {
    double last = 0;
    while (writing.load(std::memory_order_acquire)) {
      auto snapshot = concurrent.Snapshot();
      ASSERT_TRUE(snapshot.ok());
      const double now = snapshot.value().Estimate();
      // Near-monotone under concurrent writes (small estimator wobble at
      // regime boundaries is allowed; a collapse would mean lost deltas).
      EXPECT_GE(now, last * 0.9);
      last = now;
    }
  });
  for (std::thread& writer : writers) writer.join();
  writing.store(false, std::memory_order_release);
  reader.join();
  const double expected = kWriters * kPerWriter;
  EXPECT_NEAR(concurrent.Snapshot().value().Estimate(), expected,
              0.06 * expected);
}

TEST(ConcurrentSummaryTest, MixedReadersAndWritersStress) {
  // The TSan target of the satellite: N writers and M readers running with
  // no barrier, readers mixing every read-side entry point (Estimate,
  // EstimateWithBounds, Query, epoch, Snapshot) against live ingest. The
  // item volumes are kept moderate so the suite stays fast under TSan's
  // ~10x slowdown; the interleavings, not the volume, are the test.
  ConcurrentSummary<HyperLogLog> concurrent(HyperLogLog(12, 53),
                                            {.buffer_items = 512});
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr uint64_t kPerWriter = 50000;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&concurrent, &writers_done, t] {
      for (uint64_t item :
           DistinctItems(kPerWriter, 6000 + static_cast<uint64_t>(t))) {
        concurrent.Update(item);
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&concurrent, &writers_done, r] {
      uint64_t last_epoch = 0;
      double last_estimate = 0;
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        // Epochs are monotone per reader.
        const uint64_t e = concurrent.epoch();
        EXPECT_GE(e, last_epoch);
        last_epoch = e;
        const double estimate = concurrent.Estimate();
        EXPECT_GE(estimate, 0.0);
        last_estimate = std::max(last_estimate, estimate);
        const Estimate bounds = concurrent.EstimateWithBounds(0.95);
        EXPECT_LE(bounds.lower, bounds.upper);
        if (r == 0) {
          auto snapshot = concurrent.Snapshot();
          ASSERT_TRUE(snapshot.ok());
        } else {
          const int precision = concurrent.Query(
              [](const HyperLogLog& s) { return s.precision(); });
          EXPECT_EQ(precision, 12);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double expected = kWriters * kPerWriter;
  EXPECT_NEAR(concurrent.Snapshot().value().Estimate(), expected,
              0.06 * expected);
}

TEST(ShardedPipelineTest, PublishToServesLiveQueriesMidIngest) {
  // Pipeline interop: workers route their chunks into a concurrent global
  // that a reader thread queries wait-free mid-ingest; Finish() drains
  // through the same global and must still be byte-identical to
  // sequential ingest (workers flush residuals before signalling done).
  const auto items = DistinctItems(200000, 61);
  HyperLogLog sequential(12, 62);
  sequential.UpdateBatch(items);
  ConcurrentSummary<HyperLogLog> live(HyperLogLog(12, 62),
                                      {.buffer_items = 1024});
  ShardedPipeline<HyperLogLog> pipeline(HyperLogLog(12, 62),
                                        {.num_workers = 4});
  pipeline.PublishTo(&live);
  std::atomic<bool> done{false};
  std::atomic<int> decreases{0};
  std::thread reader([&live, &done, &decreases] {
    double last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const double now = live.Estimate();
      if (now + 1e-9 < last) decreases.fetch_add(1, std::memory_order_relaxed);
      last = now;
    }
  });
  std::span<const uint64_t> span(items);
  for (size_t off = 0; off < span.size(); off += 8192) {
    pipeline.Push(span.subspan(off, std::min<size_t>(8192, span.size() - off)));
  }
  auto root = pipeline.Finish();
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(decreases.load(), 0);
  EXPECT_EQ(root.value().Serialize(), sequential.Serialize());
  // The live global itself holds the complete stream too.
  EXPECT_EQ(live.Snapshot().value().Serialize(), sequential.Serialize());
}

TEST(ShardOfTest, InvariantModOverloadMatchesPlain) {
  const InvariantMod nodes(13);
  for (uint64_t item = 0; item < 2000; ++item) {
    EXPECT_EQ(ShardOf(item, nodes), ShardOf(item, size_t{13}));
    EXPECT_LT(ShardOf(item, nodes), 13u);
  }
}

TEST(MergeabilityTest, KmvMergedEqualsStreamed) {
  const auto items = DistinctItems(100000, 12);
  KmvSketch streamed(512, 13);
  std::vector<KmvSketch> leaves;
  for (int i = 0; i < 16; ++i) leaves.emplace_back(512, 13);
  for (size_t i = 0; i < items.size(); ++i) {
    streamed.Update(items[i]);
    leaves[i % 16].Update(items[i]);
  }
  auto merged = AggregateTree(std::move(leaves));
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged.value().Estimate(), streamed.Estimate());
}

}  // namespace
}  // namespace gems
