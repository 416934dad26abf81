#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cardinality/hyperloglog.h"
#include "distributed/thread_pool.h"
#include "engine/stream_query.h"
#include "frequency/count_min.h"
#include "hash/xxhash.h"
#include "time/exponential_histogram.h"
#include "time/pane_ring.h"
#include "workload/baselines.h"
#include "workload/generators.h"

namespace gems {
namespace {

StreamEvent Event(uint64_t ts, uint64_t group, uint64_t item,
                  int64_t value = 1) {
  return StreamEvent{ts, group, item, value};
}

TEST(StreamQueryTest, CountDistinctPerGroup) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  StreamQuery query(options, 1);
  // Group 0 sees 100 distinct items; group 1 sees 10 (each 10 times).
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(query.Process(Event(i, 0, i)).ok());
  }
  for (int rep = 0; rep < 10; ++rep) {
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(query.Process(Event(100 + rep, 1, i)).ok());
    }
  }
  const auto windows = query.Flush();
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_EQ(windows[0].groups.size(), 2u);
  EXPECT_NEAR(windows[0].groups[0].scalar, 100.0, 10.0);
  EXPECT_NEAR(windows[0].groups[1].scalar, 10.0, 3.0);
}

TEST(StreamQueryTest, TumblingWindowsClose) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kSum;
  options.window_size = 10;
  StreamQuery query(options, 2);
  // Window [0,10): 5 events; window [10,20): 3 events; event at 25 opens
  // a third window.
  for (uint64_t ts : {1, 3, 5, 7, 9}) {
    ASSERT_TRUE(query.Process(Event(ts, 0, 0, 2)).ok());
  }
  for (uint64_t ts : {11, 15, 19}) {
    ASSERT_TRUE(query.Process(Event(ts, 0, 0, 3)).ok());
  }
  ASSERT_TRUE(query.Process(Event(25, 0, 0, 1)).ok());
  const auto closed = query.Poll();
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].window_start, 0u);
  EXPECT_EQ(closed[0].window_end, 10u);
  EXPECT_DOUBLE_EQ(closed[0].groups[0].scalar, 10.0);
  EXPECT_EQ(closed[1].window_start, 10u);
  EXPECT_DOUBLE_EQ(closed[1].groups[0].scalar, 9.0);
  // The open window flushes on demand.
  const auto last = query.Flush();
  ASSERT_EQ(last.size(), 1u);
  EXPECT_DOUBLE_EQ(last[0].groups[0].scalar, 1.0);
}

TEST(StreamQueryTest, OutOfOrderTimestampsRejected) {
  StreamQuery::Options options;
  StreamQuery query(options, 3);
  ASSERT_TRUE(query.Process(Event(100, 0, 0)).ok());
  EXPECT_EQ(query.Process(Event(50, 0, 0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(StreamQueryTest, FiltersDropEvents) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kSum;
  StreamQuery query(options, 4);
  query.AddFilter([](const StreamEvent& e) { return e.value > 10; });
  ASSERT_TRUE(query.Process(Event(0, 0, 0, 5)).ok());    // Dropped.
  ASSERT_TRUE(query.Process(Event(1, 0, 0, 50)).ok());   // Kept.
  ASSERT_TRUE(query.Process(Event(2, 0, 0, 7)).ok());    // Dropped.
  const auto windows = query.Flush();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].groups[0].scalar, 50.0);
}

TEST(StreamQueryTest, TopKFindsElephantFlows) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kTopK;
  options.top_k = 3;
  options.top_k_capacity = 32;
  StreamQuery query(options, 5);
  // Group 7: item 1 heavy (1000), item 2 medium (500), rest light.
  uint64_t ts = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(query.Process(Event(ts++, 7, 1, 1)).ok());
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(query.Process(Event(ts++, 7, 2, 1)).ok());
  }
  for (uint64_t item = 10; item < 100; ++item) {
    ASSERT_TRUE(query.Process(Event(ts++, 7, item, 1)).ok());
  }
  const auto windows = query.Flush();
  ASSERT_EQ(windows.size(), 1u);
  const auto& top = windows[0].groups[0].top_items;
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_EQ(top[1].first, 2u);
  EXPECT_GE(top[0].second, 1000);
}

TEST(StreamQueryTest, QuantilesPerGroup) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kQuantiles;
  options.quantile_points = {0.5};
  StreamQuery query(options, 6);
  for (int i = 0; i < 1001; ++i) {
    ASSERT_TRUE(query.Process(Event(i, 0, 0, i)).ok());
  }
  const auto windows = query.Flush();
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_EQ(windows[0].groups[0].quantiles.size(), 1u);
  EXPECT_NEAR(windows[0].groups[0].quantiles[0], 500.0, 30.0);
}

TEST(StreamQueryTest, ManyGroupsInParallel) {
  // The paper's GROUP BY scenario: thousands of simultaneous sketches.
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.hll_precision = 8;
  StreamQuery query(options, 7);
  const uint64_t num_groups = 2000;
  for (uint64_t group = 0; group < num_groups; ++group) {
    for (uint64_t item = 0; item < 20; ++item) {
      ASSERT_TRUE(query.Process(Event(group, group, item)).ok());
    }
  }
  EXPECT_EQ(query.NumOpenGroups(), num_groups);
  const auto windows = query.Flush();
  ASSERT_EQ(windows[0].groups.size(), num_groups);
  for (const GroupAggregate& aggregate : windows[0].groups) {
    EXPECT_NEAR(aggregate.scalar, 20.0, 6.0);
  }
}

TEST(StreamQueryTest, FlowScanDetectionScenario) {
  // Integration with the flow generator: per-source distinct destination
  // counts expose the injected scanner.
  FlowGenerator::Options flow_options;
  flow_options.include_scan = true;
  flow_options.scan_fanout = 300;
  FlowGenerator generator(flow_options, 8);

  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.hll_precision = 10;
  StreamQuery query(options, 9);
  for (int i = 0; i < 100000; ++i) {
    const FlowRecord record = generator.Next();
    ASSERT_TRUE(query
                    .Process(Event(static_cast<uint64_t>(i), record.src_ip,
                                   record.dst_ip))
                    .ok());
  }
  const auto windows = query.Flush();
  ASSERT_EQ(windows.size(), 1u);
  // The scanner (10.0.0.1 = 0x0A000001) must have the highest fan-out.
  double scanner_fanout = 0, best_other = 0;
  for (const GroupAggregate& aggregate : windows[0].groups) {
    if (aggregate.group == 0x0A000001) {
      scanner_fanout = aggregate.scalar;
    } else {
      best_other = std::max(best_other, aggregate.scalar);
    }
  }
  EXPECT_NEAR(scanner_fanout, 300.0, 45.0);
  EXPECT_GT(scanner_fanout, best_other);
}

// -------------------------------------------------- Exponential histogram

TEST(StreamQueryTest, CheckpointRestoreResumesMidWindow) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 1000;
  StreamQuery query(options, 1);
  // Half the items, then checkpoint; a closed-but-unpolled window rides
  // along in the checkpoint too.
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(query.Process(Event(i, i % 3, i)).ok());
  }
  ASSERT_TRUE(query.Process(Event(1001, 0, 999)).ok());  // Closes [0,1000).
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(query.Process(Event(1002, 0, 2000 + i)).ok());
  }
  const std::vector<uint8_t> checkpoint = query.SerializeState();

  // A fresh query with the same options resumes exactly where the first
  // left off: same pending windows, same open-group sketches.
  StreamQuery restored(options, 1);
  ASSERT_TRUE(restored.RestoreState(checkpoint).ok());
  EXPECT_EQ(restored.NumOpenGroups(), query.NumOpenGroups());
  for (uint64_t i = 200; i < 400; ++i) {
    ASSERT_TRUE(query.Process(Event(1003, 0, 2000 + i)).ok());
    ASSERT_TRUE(restored.Process(Event(1003, 0, 2000 + i)).ok());
  }
  const auto expected = query.Flush();
  const auto actual = restored.Flush();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t w = 0; w < expected.size(); ++w) {
    ASSERT_EQ(actual[w].groups.size(), expected[w].groups.size());
    for (size_t g = 0; g < expected[w].groups.size(); ++g) {
      EXPECT_EQ(actual[w].groups[g].group, expected[w].groups[g].group);
      EXPECT_DOUBLE_EQ(actual[w].groups[g].scalar,
                       expected[w].groups[g].scalar);
    }
  }
}

TEST(StreamQueryTest, CheckpointRoundTripsAllAggregateKinds) {
  for (AggregateKind kind :
       {AggregateKind::kCountDistinct, AggregateKind::kTopK,
        AggregateKind::kQuantiles, AggregateKind::kSum}) {
    StreamQuery::Options options;
    options.aggregate = kind;
    StreamQuery query(options, 3);
    for (uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          query.Process(Event(i, i % 2, i % 50, int64_t(i % 7))).ok());
    }
    const std::vector<uint8_t> checkpoint = query.SerializeState();
    StreamQuery restored(options, 3);
    ASSERT_TRUE(restored.RestoreState(checkpoint).ok());
    // Restored state serializes back to the identical checkpoint.
    EXPECT_EQ(restored.SerializeState(), checkpoint);
  }
}

TEST(StreamQueryTest, ProcessBatchMatchesPerEventExactly) {
  // The hash-once batch path must leave the query in byte-identical state
  // to per-event processing, across window closes, filters, and groups.
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 500;
  StreamQuery per_event(options, 7);
  StreamQuery batched(options, 7);
  per_event.AddFilter([](const StreamEvent& e) { return e.item % 10 != 0; });
  batched.AddFilter([](const StreamEvent& e) { return e.item % 10 != 0; });

  std::vector<StreamEvent> events;
  for (uint64_t i = 0; i < 3000; ++i) {
    events.push_back(Event(i, i % 4, i * 0x9E3779B97F4A7C15ull >> 32));
  }
  for (const StreamEvent& e : events) {
    ASSERT_TRUE(per_event.Process(e).ok());
  }
  // Feed the batch path in ragged slices spanning the 256-event chunk.
  size_t offset = 0;
  for (size_t n : {1u, 255u, 256u, 257u, 1000u, 1231u}) {
    ASSERT_TRUE(
        batched
            .ProcessBatch(std::span<const StreamEvent>(events).subspan(offset, n))
            .ok());
    offset += n;
  }
  ASSERT_EQ(offset, events.size());
  EXPECT_EQ(batched.SerializeState(), per_event.SerializeState());
  EXPECT_EQ(batched.NumOpenGroups(), per_event.NumOpenGroups());
}

TEST(StreamQueryTest, ProcessBatchFallbackAggregatesMatch) {
  // Non-distinct aggregates take the per-event path inside ProcessBatch;
  // state must still be identical.
  for (AggregateKind kind : {AggregateKind::kTopK, AggregateKind::kQuantiles,
                             AggregateKind::kSum}) {
    StreamQuery::Options options;
    options.aggregate = kind;
    StreamQuery per_event(options, 3);
    StreamQuery batched(options, 3);
    std::vector<StreamEvent> events;
    for (uint64_t i = 0; i < 500; ++i) {
      events.push_back(Event(i, i % 2, i % 50, int64_t(i % 7)));
    }
    for (const StreamEvent& e : events) {
      ASSERT_TRUE(per_event.Process(e).ok());
    }
    ASSERT_TRUE(batched.ProcessBatch(events).ok());
    EXPECT_EQ(batched.SerializeState(), per_event.SerializeState());
  }
}

TEST(StreamQueryTest, ProcessBatchParallelMatchesPerEventExactly) {
  // The partitioned multi-core path must leave the query byte-identical to
  // per-event processing for every aggregate kind: each group is owned by
  // one worker and its updates are applied in stream order.
  ThreadPool pool(4);
  for (AggregateKind kind :
       {AggregateKind::kCountDistinct, AggregateKind::kTopK,
        AggregateKind::kQuantiles, AggregateKind::kSum}) {
    StreamQuery::Options options;
    options.aggregate = kind;
    options.window_size = 700;  // Several closes inside the batch.
    StreamQuery per_event(options, 11);
    StreamQuery parallel(options, 11);
    per_event.AddFilter([](const StreamEvent& e) { return e.item % 9 != 0; });
    parallel.AddFilter([](const StreamEvent& e) { return e.item % 9 != 0; });

    std::vector<StreamEvent> events;
    for (uint64_t i = 0; i < 5000; ++i) {
      events.push_back(Event(i, i % 37, i * 0x9E3779B97F4A7C15ull >> 32,
                             int64_t(i % 13)));
    }
    for (const StreamEvent& e : events) {
      ASSERT_TRUE(per_event.Process(e).ok());
    }
    // Ragged slices, so segments straddle Push boundaries too.
    std::span<const StreamEvent> span(events);
    size_t offset = 0;
    for (size_t n : {1u, 699u, 700u, 1500u, 2100u}) {
      ASSERT_TRUE(parallel.ProcessBatchParallel(span.subspan(offset, n), pool)
                      .ok());
      offset += n;
    }
    ASSERT_EQ(offset, events.size());
    EXPECT_EQ(parallel.SerializeState(), per_event.SerializeState());
    EXPECT_EQ(parallel.NumOpenGroups(), per_event.NumOpenGroups());
  }
}

TEST(StreamQueryTest, ProcessBatchParallelStopsAtFirstError) {
  ThreadPool pool(2);
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  StreamQuery query(options, 1);
  const std::vector<StreamEvent> events = {Event(10, 0, 1), Event(11, 0, 2),
                                           Event(5, 0, 3), Event(12, 0, 4)};
  EXPECT_FALSE(query.ProcessBatchParallel(events, pool).ok());
  StreamQuery expected(options, 1);
  ASSERT_TRUE(expected.Process(Event(10, 0, 1)).ok());
  ASSERT_TRUE(expected.Process(Event(11, 0, 2)).ok());
  EXPECT_EQ(query.SerializeState(), expected.SerializeState());
}

TEST(StreamQueryTest, ProcessBatchStopsAtFirstError) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  StreamQuery query(options, 1);
  // Timestamp regression mid-batch: the bad event is rejected, everything
  // before it has been applied.
  const std::vector<StreamEvent> events = {Event(10, 0, 1), Event(11, 0, 2),
                                           Event(5, 0, 3), Event(12, 0, 4)};
  EXPECT_FALSE(query.ProcessBatch(events).ok());
  StreamQuery expected(options, 1);
  ASSERT_TRUE(expected.Process(Event(10, 0, 1)).ok());
  ASSERT_TRUE(expected.Process(Event(11, 0, 2)).ok());
  EXPECT_EQ(query.SerializeState(), expected.SerializeState());
}

TEST(StreamQueryTest, RestoreRejectsMismatchedOptionsAndCorruption) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  StreamQuery query(options, 1);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(query.Process(Event(i, 0, i)).ok());
  }
  const std::vector<uint8_t> checkpoint = query.SerializeState();

  // Different aggregate: the checkpoint is valid but for another query.
  StreamQuery::Options other = options;
  other.aggregate = AggregateKind::kSum;
  StreamQuery wrong_options(other, 1);
  EXPECT_EQ(wrong_options.RestoreState(checkpoint).code(),
            StatusCode::kInvalidArgument);

  // Different seed: sketches would not be merge-compatible.
  StreamQuery wrong_seed(options, 2);
  EXPECT_EQ(wrong_seed.RestoreState(checkpoint).code(),
            StatusCode::kInvalidArgument);

  // Damage: truncations and bit flips are corruption, and a failed
  // restore leaves the target untouched.
  StreamQuery victim(options, 1);
  ASSERT_TRUE(victim.Process(Event(1, 7, 7)).ok());
  for (size_t len : {size_t{0}, size_t{3}, checkpoint.size() / 2,
                     checkpoint.size() - 1}) {
    const std::vector<uint8_t> cut(checkpoint.begin(),
                                   checkpoint.begin() + len);
    EXPECT_EQ(victim.RestoreState(cut).code(), StatusCode::kCorruption);
  }
  for (size_t pos = 0; pos < checkpoint.size(); ++pos) {
    std::vector<uint8_t> damaged = checkpoint;
    damaged[pos] ^= 0x40;
    const Status s = victim.RestoreState(damaged);
    ASSERT_FALSE(s.ok()) << "flip at " << pos << " was accepted";
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << "flip at " << pos << ": " << s.ToString();
  }
  EXPECT_EQ(victim.NumOpenGroups(), 1u);  // Still its own state.
}

/// Re-seals a checkpoint body edited in place: recomputes the trailing
/// XXH64 (seed "QSMG"), as a forger would.
std::vector<uint8_t> Reseal(std::vector<uint8_t> image) {
  const size_t body = image.size() - 8;
  const uint64_t checksum = XxHash64(image.data(), body, 0x474D5351);
  for (int i = 0; i < 8; ++i) {
    image[body + i] = static_cast<uint8_t>(checksum >> (8 * i));
  }
  return image;
}

TEST(StreamQueryTest, RestoreRejectsSketchesThatDoNotMatchTheQuery) {
  // Checkpoint fingerprint offsets: aggregate at 5, HLL precision at 22,
  // the TOP-K capacity varint at 23.
  constexpr size_t kAggregateAt = 5, kPrecisionAt = 22, kCapacityAt = 23;

  // A SUM image relabelled COUNT DISTINCT: its groups carry no HLL, which
  // the first emission would read.
  StreamQuery::Options sum;
  sum.aggregate = AggregateKind::kSum;
  sum.window_size = 10;
  StreamQuery summed(sum, 1);
  ASSERT_TRUE(summed.Process(Event(1, 4, 9)).ok());
  std::vector<uint8_t> image = summed.SerializeState();
  image[kAggregateAt] = static_cast<uint8_t>(AggregateKind::kCountDistinct);
  image[kPrecisionAt] = 12;
  StreamQuery::Options distinct = sum;
  distinct.aggregate = AggregateKind::kCountDistinct;
  distinct.hll_precision = 12;
  StreamQuery relabelled(distinct, 1);
  EXPECT_EQ(relabelled.RestoreState(Reseal(image)).code(),
            StatusCode::kCorruption);

  // A sliding TOP-K image whose fingerprint claims a larger capacity than
  // its panes have: the ring could not merge them.
  StreamQuery::Options top;
  top.aggregate = AggregateKind::kTopK;
  top.window_size = 12;
  top.slide = 3;
  top.top_k_capacity = 8;
  top.top_k = 2;
  StreamQuery small(top, 1);
  ASSERT_TRUE(small.Process(Event(1, 4, 9)).ok());
  image = small.SerializeState();
  ASSERT_EQ(image[kCapacityAt], 8);
  image[kCapacityAt] = 9;
  top.top_k_capacity = 9;
  StreamQuery larger(top, 1);
  EXPECT_EQ(larger.RestoreState(Reseal(image)).code(),
            StatusCode::kCorruption);
}

TEST(StreamQueryTest, RestoreRejectsPaneRingClocksBehindTheirPanes) {
  // Sliding TOP-K / QUANTILES image offsets (one group, 1-byte varints):
  // the group's presence byte at 71, its ring clock at 72, the pane count
  // at 80, the first pane at 81; the closed-window count sits just before
  // the 8-byte trailer.
  constexpr size_t kPresentAt = 71, kClockAt = 72, kCountAt = 80,
                   kPanesAt = 81;
  for (AggregateKind kind : {AggregateKind::kTopK, AggregateKind::kQuantiles}) {
    StreamQuery::Options options;
    options.aggregate = kind;
    options.window_size = 12;
    options.slide = 3;
    options.top_k_capacity = 8;
    options.top_k = 2;
    StreamQuery query(options, 1);
    ASSERT_TRUE(query.Process(Event(7, 4, 9)).ok());  // Pane 2.
    const std::vector<uint8_t> image = query.SerializeState();
    ASSERT_EQ(image[kPresentAt], kind == AggregateKind::kTopK ? 16 : 32);
    ASSERT_EQ(image[kClockAt], 7);
    ASSERT_EQ(image[kCountAt], 1);
    ASSERT_EQ(image[image.size() - 9], 0);  // No closed windows.
    StreamQuery target(options, 1);
    ASSERT_TRUE(target.RestoreState(image).ok());

    // A clock in pane 0, behind the newest pane: later events would land
    // in pane 2 while the clock says pane 0.
    std::vector<uint8_t> behind = image;
    behind[kClockAt] = 1;
    EXPECT_EQ(target.RestoreState(Reseal(behind)).code(),
              StatusCode::kCorruption);

    // A running clock over no panes at all.
    std::vector<uint8_t> empty = image;
    empty.erase(empty.begin() + kPanesAt, empty.end() - 9);
    empty[kCountAt] = 0;
    EXPECT_EQ(target.RestoreState(Reseal(empty)).code(),
              StatusCode::kCorruption);
  }
}

TEST(StreamQueryTest, RestoreRejectsASumOnASketchGroup) {
  // One-group COUNT DISTINCT image: the group's i64 sum field at 63, its
  // presence byte at 71. Only SUM groups carry a sum.
  constexpr size_t kSumAt = 63, kPresentAt = 71;
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 10;
  StreamQuery query(options, 1);
  ASSERT_TRUE(query.Process(Event(1, 4, 9)).ok());
  std::vector<uint8_t> image = query.SerializeState();
  ASSERT_EQ(image[kPresentAt], 1);
  ASSERT_EQ(image[kSumAt], 0);
  image[kSumAt] = 5;
  StreamQuery target(options, 1);
  EXPECT_EQ(target.RestoreState(Reseal(image)).code(),
            StatusCode::kCorruption);
}

TEST(StreamQueryTest, RestoreRefusesVersionOneAndTwoImages) {
  // With its unused knobs zero, a COUNT DISTINCT query fingerprints the
  // same under the v1/v2 raw-knob rule as under v3's, so these are
  // well-formed v1 and v2 images of the same state.
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 10;
  options.top_k_capacity = 0;
  options.top_k = 0;
  options.kll_k = 0;
  StreamQuery query(options, 1);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(query.Process(Event(i, i % 3, i)).ok());
  }
  constexpr size_t kVersionAt = 4, kSlideAt = 14;
  std::vector<uint8_t> v2 = query.SerializeState();
  ASSERT_EQ(v2[kVersionAt], 3);
  v2[kVersionAt] = 2;
  // Version 1 predates the slide field.
  std::vector<uint8_t> v1 = v2;
  v1[kVersionAt] = 1;
  v1.erase(v1.begin() + kSlideAt, v1.begin() + kSlideAt + 8);
  for (const std::vector<uint8_t>& image : {v1, v2}) {
    StreamQuery target(options, 1);
    const Status s = target.RestoreState(Reseal(image));
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    EXPECT_NE(s.message().find("unsupported version"), std::string::npos);
  }
}

TEST(StreamQueryTest, BatchedCoreRejectsRunsBuiltForOtherEventsOrPeriods) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kSum;
  options.window_size = 10;
  StreamQuery query(options, 1);
  const std::vector<StreamEvent> events = {Event(1, 4, 9), Event(12, 4, 9)};
  const std::vector<StreamEvent> copy = events;
  const uint64_t own = 10, other = 7;
  GroupRuns runs;
  runs.Build(events, std::span<const uint64_t>(&own, 1));
  ASSERT_TRUE(query.ProcessBatchPrehashed(events, runs, {}, {}).ok());
  // Runs of an equal-length copy, or runs cut at another query's period,
  // would skip this query's window closes: refused, not applied.
  EXPECT_DEATH((void)query.ProcessBatchPrehashed(copy, runs, {}, {}), "");
  runs.Build(events, std::span<const uint64_t>(&other, 1));
  EXPECT_DEATH((void)query.ProcessBatchPrehashed(events, runs, {}, {}), "");
}

TEST(StreamQueryTest, LiveDistinctPublishesUnderIngest) {
  // The engine's concurrent hook: a wait-free ConcurrentSummary<HLL> that
  // mirrors every accepted event's item across groups and windows, so
  // another thread can read the stream-wide distinct count while the
  // query ingests. Window closes flush the query thread's residual.
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 500;
  options.hll_precision = 12;
  StreamQuery query(options, 77);
  // Drop odd items: the live view must see accepted events only.
  query.AddFilter([](const StreamEvent& e) { return e.item % 2 == 0; });
  ConcurrentSummary<HyperLogLog> live(HyperLogLog(12, 77),
                                      {.buffer_items = 512});
  query.PublishDistinctTo(&live);

  constexpr uint64_t kEvents = 20000;
  std::vector<StreamEvent> events;
  events.reserve(kEvents);
  for (uint64_t i = 0; i < kEvents; ++i) {
    // 4 events per timestamp tick -> a window closes every 2000 events.
    events.push_back(Event(i / 4, i % 8, i));
  }
  HyperLogLog sequential(12, 77);
  for (const StreamEvent& e : events) {
    if (e.item % 2 == 0) sequential.Update(e.item);
  }

  std::span<const StreamEvent> span(events);
  ASSERT_TRUE(query.ProcessBatch(span.subspan(0, kEvents / 2)).ok());
  // Mid-ingest: closed windows have flushed the live view, so a reader
  // sees a bounded-staleness estimate that is already most of the stream.
  EXPECT_GT(live.epoch(), 0u);
  EXPECT_GT(live.Estimate(), 0.0);
  for (size_t off = kEvents / 2; off < span.size(); off += 1000) {
    ASSERT_TRUE(query.ProcessBatch(span.subspan(off, 1000)).ok());
  }
  query.Flush();

  // Quiesced: the live view saw exactly the accepted items, in one
  // thread, so it is byte-identical to the sequential reference.
  EXPECT_EQ(live.Snapshot().value().Serialize(), sequential.Serialize());
  EXPECT_NEAR(live.Estimate(), kEvents / 2.0, 0.05 * kEvents / 2.0);
}

TEST(StreamQueryTest, LiveDistinctMirrorsParallelRoutingThread) {
  // ProcessBatchParallel mirrors items on the routing (calling) thread,
  // not the pool workers — the live count must still cover every
  // accepted event.
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.hll_precision = 12;
  StreamQuery query(options, 78);
  ConcurrentSummary<HyperLogLog> live(HyperLogLog(12, 78));
  query.PublishDistinctTo(&live);
  ThreadPool pool(4);
  constexpr uint64_t kEvents = 20000;
  std::vector<StreamEvent> events;
  events.reserve(kEvents);
  for (uint64_t i = 0; i < kEvents; ++i) {
    events.push_back(Event(1, i % 64, i));
  }
  ASSERT_TRUE(query.ProcessBatchParallel(events, pool).ok());
  query.Flush();
  live.FlushLocal();
  EXPECT_NEAR(live.Estimate(), kEvents, 0.05 * kEvents);
}

TEST(ExponentialHistogramTest, ExactWhileSmall) {
  ExponentialHistogram eh(1000, 0.1);
  for (uint64_t t = 0; t < 5; ++t) eh.Add(t);
  EXPECT_EQ(eh.EstimateCount(5), 5u);
}

TEST(ExponentialHistogramTest, WindowExpiryDropsOldEvents) {
  ExponentialHistogram eh(100, 0.1);
  for (uint64_t t = 0; t < 50; ++t) eh.Add(t);
  // At now = 200 every event (timestamps 0..49) is outside (100, 200].
  EXPECT_EQ(eh.EstimateCount(200), 0u);
}

TEST(ExponentialHistogramTest, RelativeErrorBounded) {
  const uint64_t window = 10000;
  ExponentialHistogram eh(window, 0.1);
  // One event per time unit for 50000 units; true count in window = 10000.
  for (uint64_t t = 0; t < 50000; ++t) eh.Add(t);
  const double estimate = static_cast<double>(eh.EstimateCount(49999));
  EXPECT_NEAR(estimate, 10000.0, 0.12 * 10000);
}

TEST(ExponentialHistogramTest, BurstyArrivals) {
  ExponentialHistogram eh(1000, 0.05);
  // Burst of 5000 events at t=0, then silence.
  for (int i = 0; i < 5000; ++i) eh.Add(0);
  EXPECT_NEAR(static_cast<double>(eh.EstimateCount(0)), 5000.0,
              0.06 * 5000);
  EXPECT_NEAR(static_cast<double>(eh.EstimateCount(999)), 5000.0,
              0.06 * 5000);
  EXPECT_EQ(eh.EstimateCount(2000), 0u);
}

TEST(ExponentialHistogramTest, SpaceIsLogarithmic) {
  ExponentialHistogram eh(1 << 20, 0.1);
  for (uint64_t t = 0; t < 200000; ++t) eh.Add(t);
  // O((1/eps) log(eps N)) buckets: generous cap.
  EXPECT_LE(eh.NumBuckets(), 400u);
}

TEST(ExponentialHistogramTest, ErrorShrinksWithEpsilon) {
  const uint64_t window = 4096;
  std::vector<double> errors;
  for (double epsilon : {0.5, 0.05}) {
    ExponentialHistogram eh(window, epsilon);
    for (uint64_t t = 0; t < 20000; ++t) eh.Add(t);
    errors.push_back(std::abs(
        static_cast<double>(eh.EstimateCount(19999)) - 4096.0));
  }
  EXPECT_LT(errors[1], errors[0]);
}

// ---------------------------------------------------------- Sliding window

TEST(SlidingWindowTest, ExpiresOldPanes) {
  // Window = 4 panes x 100 units. Items seen in pane 0 must be gone once
  // time passes 400 units later.
  PaneRing<HyperLogLog> window(HyperLogLog(12, 1), 100, 4);
  for (uint64_t i = 0; i < 1000; ++i) {
    window.Update(/*timestamp=*/50, i);  // All in pane 0.
  }
  EXPECT_NEAR(window.WindowSummary().Estimate(), 1000.0, 60.0);
  // Jump far ahead: pane 0 expires; new items only.
  for (uint64_t i = 0; i < 100; ++i) {
    window.Update(/*timestamp=*/1000, 1000000 + i);
  }
  EXPECT_NEAR(window.WindowSummary().Estimate(), 100.0, 15.0);
  EXPECT_LE(window.NumLivePanes(), 4u);
}

TEST(SlidingWindowTest, GradualSlideTracksRecentDistincts) {
  PaneRing<HyperLogLog> window(HyperLogLog(12, 2), 10, 10);
  // 100 time units of window; emit 10 fresh items per unit.
  uint64_t next_item = 0;
  for (uint64_t t = 0; t < 500; ++t) {
    for (int i = 0; i < 10; ++i) window.Update(t, next_item++);
    if (t >= 100 && t % 50 == 0) {
      // Steady state: ~1000 distinct items inside the window (100 units x
      // 10/unit), quantized by one pane (10%).
      const double estimate = window.WindowSummary().Estimate();
      EXPECT_NEAR(estimate, 1000.0, 200.0) << "t = " << t;
    }
  }
}

TEST(SlidingWindowTest, WorksWithCountMin) {
  PaneRing<CountMinSketch> window(CountMinSketch(256, 4, 3), 10, 5);
  // Heavy item appears only in the first pane.
  for (int i = 0; i < 100; ++i) window.Update(0, /*item=*/7, /*weight=*/1);
  EXPECT_GE(window.WindowSummary().Estimate(7), 100u);
  // After the window slides past, its count drops to zero.
  window.Advance(1000);
  EXPECT_EQ(window.WindowSummary().Estimate(7), 0u);
}

TEST(SlidingWindowTest, PaneCountStaysBounded) {
  PaneRing<HyperLogLog> window(HyperLogLog(8, 4), 1, 8);
  for (uint64_t t = 0; t < 10000; t += 3) {
    window.Update(t, t);
    EXPECT_LE(window.NumLivePanes(), 8u);
  }
}

TEST(SlidingStreamQueryTest, EmitsTrailingWindowAtEachSlideBoundary) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 30;
  options.slide = 10;
  StreamQuery query(options, 7);
  // 5 distinct items per 10-unit slide, all in group 0.
  for (uint64_t t = 0; t < 60; ++t) {
    ASSERT_TRUE(query.Process(Event(t, 0, t / 2)).ok());
  }
  const auto closed = query.Poll();
  // Crossings at t = 10, 20, 30, 40, 50 emitted windows ending there.
  ASSERT_EQ(closed.size(), 5u);
  EXPECT_EQ(closed[0].window_start, 0u);
  EXPECT_EQ(closed[0].window_end, 10u);
  EXPECT_NEAR(closed[0].groups[0].scalar, 5.0, 1.0);
  // Once the stream outruns the window, results cover [end - 30, end) and
  // old slides' items have been expired from the pane ring.
  EXPECT_EQ(closed[4].window_start, 20u);
  EXPECT_EQ(closed[4].window_end, 50u);
  EXPECT_NEAR(closed[4].groups[0].scalar, 15.0, 2.0);
  // Groups persist across slides instead of tumbling away.
  EXPECT_EQ(query.NumOpenGroups(), 1u);
  // Flush emits one final window ending at the next boundary.
  const auto last = query.Flush();
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].window_end, 60u);
  EXPECT_NEAR(last[0].groups[0].scalar, 15.0, 2.0);
}

TEST(SlidingStreamQueryTest, TracksBruteForcePerGroupDistincts) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 40;
  options.slide = 8;
  StreamQuery query(options, 11);
  std::vector<StreamEvent> events;
  uint64_t state = 99;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (uint64_t t = 0; t < 400; ++t) {
    for (int i = 0; i < 3; ++i) {
      events.push_back(Event(t, next() % 4, next() % 97));
    }
  }
  for (const StreamEvent& event : events) {
    ASSERT_TRUE(query.Process(event).ok());
  }
  const auto closed = query.Poll();
  ASSERT_FALSE(closed.empty());
  for (const WindowResult& window : closed) {
    // Window covers whole panes: timestamps in [start, end).
    std::unordered_map<uint64_t, std::set<uint64_t>> exact;
    for (const StreamEvent& event : events) {
      if (event.timestamp >= window.window_start &&
          event.timestamp < window.window_end) {
        exact[event.group].insert(event.item);
      }
    }
    for (const GroupAggregate& aggregate : window.groups) {
      const auto it = exact.find(aggregate.group);
      const double truth =
          it == exact.end() ? 0.0 : static_cast<double>(it->second.size());
      EXPECT_NEAR(aggregate.scalar, truth, std::max(2.0, 0.15 * truth))
          << "group " << aggregate.group << " window ["
          << window.window_start << ", " << window.window_end << ")";
    }
  }
}

TEST(SlidingStreamQueryTest, ValidatesSlideGeometryAndAggregate) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 10;
  options.slide = 7;  // Not a divisor of window_size.
  StreamQuery bad_geometry(options, 1);
  EXPECT_EQ(bad_geometry.Process(Event(0, 0, 0)).code(),
            StatusCode::kInvalidArgument);

  options.window_size = 14;
  options.aggregate = AggregateKind::kSum;
  StreamQuery bad_aggregate(options, 1);
  EXPECT_EQ(bad_aggregate.Process(Event(0, 0, 0)).code(),
            StatusCode::kUnimplemented);

  // Sliding queries still enforce stream order.
  options.aggregate = AggregateKind::kCountDistinct;
  StreamQuery ordered(options, 1);
  ASSERT_TRUE(ordered.Process(Event(50, 0, 0)).ok());
  EXPECT_EQ(ordered.Process(Event(49, 0, 1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SlidingStreamQueryTest, BatchIngestMatchesPerEventExactly) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 20;
  options.slide = 5;
  std::vector<StreamEvent> events;
  for (uint64_t t = 0; t < 100; ++t) {
    events.push_back(Event(t, t % 3, (t * 17) % 41));
  }
  StreamQuery per_event(options, 13);
  for (const StreamEvent& event : events) {
    ASSERT_TRUE(per_event.Process(event).ok());
  }
  StreamQuery batched(options, 13);
  ASSERT_TRUE(batched.ProcessBatch(events).ok());
  EXPECT_EQ(batched.SerializeState(), per_event.SerializeState());
}

TEST(SlidingStreamQueryTest, CheckpointRoundTripsPaneRings) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 30;
  options.slide = 10;
  StreamQuery query(options, 17);
  for (uint64_t t = 0; t < 47; ++t) {
    ASSERT_TRUE(query.Process(Event(t, t % 2, t * 3)).ok());
  }
  (void)query.Poll();
  const std::vector<uint8_t> checkpoint = query.SerializeState();

  StreamQuery restored(options, 17);
  ASSERT_TRUE(restored.RestoreState(checkpoint).ok());
  EXPECT_EQ(restored.SerializeState(), checkpoint);

  // Both copies must agree bit-for-bit on the rest of the stream.
  for (uint64_t t = 47; t < 80; ++t) {
    const StreamEvent event = Event(t, t % 2, t * 3);
    ASSERT_TRUE(query.Process(event).ok());
    ASSERT_TRUE(restored.Process(event).ok());
  }
  EXPECT_EQ(restored.SerializeState(), query.SerializeState());
  const auto expected = query.Flush();
  const auto actual = restored.Flush();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].window_end, expected[i].window_end);
    ASSERT_EQ(actual[i].groups.size(), expected[i].groups.size());
    for (size_t g = 0; g < expected[i].groups.size(); ++g) {
      EXPECT_DOUBLE_EQ(actual[i].groups[g].scalar,
                       expected[i].groups[g].scalar);
    }
  }
}

TEST(SlidingStreamQueryTest, TopKTracksTrailingWindow) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kTopK;
  options.window_size = 40;
  options.slide = 10;
  options.top_k = 2;
  StreamQuery query(options, 5);
  // Item 7 is heavy only during [0, 20); item 9 is heavy from 40 on. A
  // trailing 40-unit window must stop reporting 7 once it expires.
  for (uint64_t t = 0; t < 20; ++t) {
    ASSERT_TRUE(query.Process(Event(t, 0, 7, 50)).ok());
    ASSERT_TRUE(query.Process(Event(t, 0, t + 100)).ok());
  }
  for (uint64_t t = 20; t < 100; ++t) {
    ASSERT_TRUE(query.Process(Event(t, 0, t >= 40 ? 9 : t + 200,
                                    t >= 40 ? 30 : 1)).ok());
  }
  const auto windows = query.Flush();
  ASSERT_FALSE(windows.empty());
  bool seven_led_early = false;
  for (const WindowResult& window : windows) {
    ASSERT_EQ(window.groups.size(), 1u);
    const auto& top = window.groups[0].top_items;
    ASSERT_FALSE(top.empty());
    if (window.window_end <= 30 && top[0].first == 7) seven_led_early = true;
    if (window.window_start >= 20) {
      EXPECT_NE(top[0].first, 7u)
          << "item 7 expired at t=20 but still leads window ["
          << window.window_start << ", " << window.window_end << ")";
    }
  }
  EXPECT_TRUE(seven_led_early);
  const WindowResult& last = windows.back();
  EXPECT_EQ(last.groups[0].top_items[0].first, 9u);
}

TEST(SlidingStreamQueryTest, QuantilesTrackTrailingWindow) {
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kQuantiles;
  options.window_size = 20;
  options.slide = 5;
  options.quantile_points = {0.5};
  StreamQuery query(options, 11);
  // Values are ~100 before t=50 and ~1000 after; once the old panes
  // expire, the sliding median must jump to the new regime.
  for (uint64_t t = 0; t < 100; ++t) {
    const int64_t value = t < 50 ? 100 + static_cast<int64_t>(t % 7)
                                 : 1000 + static_cast<int64_t>(t % 7);
    ASSERT_TRUE(query.Process(Event(t, 3, t, value)).ok());
  }
  const auto windows = query.Flush();
  ASSERT_FALSE(windows.empty());
  for (const WindowResult& window : windows) {
    ASSERT_EQ(window.groups.size(), 1u);
    ASSERT_EQ(window.groups[0].quantiles.size(), 1u);
    const double median = window.groups[0].quantiles[0];
    if (window.window_end <= 50) {
      EXPECT_NEAR(median, 103.0, 10.0);
    } else if (window.window_start >= 50) {
      EXPECT_NEAR(median, 1003.0, 10.0);
    }
  }
}

TEST(SlidingStreamQueryTest, CheckpointRoundTripsTopKAndQuantileRings) {
  for (const AggregateKind aggregate :
       {AggregateKind::kTopK, AggregateKind::kQuantiles}) {
    StreamQuery::Options options;
    options.aggregate = aggregate;
    options.window_size = 30;
    options.slide = 10;
    StreamQuery query(options, 23);
    for (uint64_t t = 0; t < 47; ++t) {
      ASSERT_TRUE(
          query.Process(Event(t, t % 2, (t * 13) % 29, 1 + t % 5)).ok());
    }
    (void)query.Poll();
    const std::vector<uint8_t> checkpoint = query.SerializeState();

    StreamQuery restored(options, 23);
    ASSERT_TRUE(restored.RestoreState(checkpoint).ok());
    EXPECT_EQ(restored.SerializeState(), checkpoint);

    for (uint64_t t = 47; t < 80; ++t) {
      const StreamEvent event = Event(t, t % 2, (t * 13) % 29, 1 + t % 5);
      ASSERT_TRUE(query.Process(event).ok());
      ASSERT_TRUE(restored.Process(event).ok());
    }
    EXPECT_EQ(restored.SerializeState(), query.SerializeState());
  }
}

TEST(StreamQueryTest, SerializedStateIndependentOfGroupArrivalOrder) {
  // The GROUP-BY table is a hash table with insertion-dependent iteration
  // order; sorted emission must make checkpoints and window results
  // byte-identical no matter which group shows up first.
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  std::vector<StreamEvent> ascending, descending;
  for (uint64_t g = 0; g < 40; ++g) {
    ascending.push_back(Event(7, g, g * 31));
    descending.push_back(Event(7, 39 - g, (39 - g) * 31));
  }
  StreamQuery forward(options, 3);
  StreamQuery backward(options, 3);
  ASSERT_TRUE(forward.ProcessBatch(ascending).ok());
  ASSERT_TRUE(backward.ProcessBatch(descending).ok());
  EXPECT_EQ(forward.SerializeState(), backward.SerializeState());

  const auto lhs = forward.Flush();
  const auto rhs = backward.Flush();
  ASSERT_EQ(lhs.size(), 1u);
  ASSERT_EQ(rhs.size(), 1u);
  ASSERT_EQ(lhs[0].groups.size(), rhs[0].groups.size());
  for (size_t g = 0; g < lhs[0].groups.size(); ++g) {
    EXPECT_EQ(lhs[0].groups[g].group, rhs[0].groups[g].group);
    EXPECT_DOUBLE_EQ(lhs[0].groups[g].scalar, rhs[0].groups[g].scalar);
  }
}

}  // namespace
}  // namespace gems
