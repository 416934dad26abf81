#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/random.h"
#include "common/status.h"
#include "distributed/thread_pool.h"
#include "engine/multi_query.h"
#include "engine/stream_query.h"
#include "hash/xxhash.h"
#include "workload/multi_query.h"

namespace gems {
namespace {

/// Registers the workload's whole filter palette plus every spec; palette
/// index i becomes engine FilterId i, so specs map directly.
void RegisterAll(MultiQueryEngine& engine,
                 const std::vector<MultiQuerySpec>& specs) {
  std::vector<MultiQueryEngine::FilterId> palette;
  for (size_t i = 0; i < MultiQueryWorkload::PaletteSize(); ++i) {
    palette.push_back(
        engine.RegisterFilter(MultiQueryWorkload::PaletteFilter(i)));
  }
  for (const MultiQuerySpec& spec : specs) {
    std::vector<MultiQueryEngine::FilterId> ids;
    for (size_t f : spec.filters) ids.push_back(palette[f]);
    engine.AddQuery(spec.options, ids);
  }
}

/// The N-independent-queries baseline: one StreamQuery per spec with the
/// same options, seed, and palette predicates.
std::vector<StreamQuery> MakeIndependents(
    const std::vector<MultiQuerySpec>& specs, uint64_t seed) {
  std::vector<StreamQuery> queries;
  queries.reserve(specs.size());
  for (const MultiQuerySpec& spec : specs) {
    StreamQuery query(spec.options, seed);
    for (size_t f : spec.filters) {
      query.AddFilter(MultiQueryWorkload::PaletteFilter(f));
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

/// Canonical bytes for a result list, so window equality checks are exact
/// (including double bit patterns) rather than field-by-field EXPECTs.
std::vector<uint8_t> WindowBytes(const std::vector<WindowResult>& windows) {
  ByteWriter w;
  engine_detail::SerializeWindows(
      w, std::deque<WindowResult>(windows.begin(), windows.end()));
  return std::move(w).TakeBytes();
}

TEST(MultiQueryEngineTest, Equivalence256QueriesAgainstIndependents) {
  MultiQueryWorkloadOptions wopt;
  wopt.num_queries = 256;
  wopt.overlap = 0.5;
  wopt.num_groups = 32;
  wopt.window_size = 256;
  wopt.events_per_tick = 4;
  wopt.seed = 42;
  MultiQueryWorkload workload(wopt);

  const uint64_t seed = 99;
  MultiQueryEngine engine(seed);
  RegisterAll(engine, workload.specs());
  ASSERT_EQ(engine.num_queries(), 256u);
  // 50% overlap must actually deduplicate a sizable share of the state.
  EXPECT_LT(engine.num_physical_queries(), engine.num_queries());

  std::vector<StreamQuery> independents =
      MakeIndependents(workload.specs(), seed);

  // ~3.5 windows of events, in two batches to exercise chunk boundaries.
  const std::vector<StreamEvent> first = workload.GenerateEvents(2000);
  const std::vector<StreamEvent> second = workload.GenerateEvents(1600);
  ASSERT_TRUE(engine.ProcessBatch(first).ok());
  ASSERT_TRUE(engine.ProcessBatch(second).ok());
  for (StreamQuery& query : independents) {
    ASSERT_TRUE(query.ProcessBatch(first).ok());
    ASSERT_TRUE(query.ProcessBatch(second).ok());
  }

  for (size_t qid = 0; qid < independents.size(); ++qid) {
    EXPECT_EQ(WindowBytes(engine.Poll(qid)),
              WindowBytes(independents[qid].Poll()))
        << "results diverge for query " << qid;
    EXPECT_EQ(engine.SerializeQueryState(qid),
              independents[qid].SerializeState())
        << "checkpoint diverges for query " << qid;
  }

  engine.Flush();
  for (size_t qid = 0; qid < independents.size(); ++qid) {
    EXPECT_EQ(WindowBytes(engine.Poll(qid)),
              WindowBytes(independents[qid].Flush()))
        << "flushed results diverge for query " << qid;
  }
}

TEST(MultiQueryEngineTest, ParallelFanOutIsByteIdentical) {
  MultiQueryWorkloadOptions wopt;
  wopt.num_queries = 64;
  wopt.overlap = 0.4;
  wopt.num_groups = 48;
  wopt.window_size = 256;
  wopt.events_per_tick = 4;
  wopt.seed = 7;
  MultiQueryWorkload sequential_workload(wopt);
  MultiQueryWorkload parallel_workload(wopt);

  const uint64_t seed = 123;
  MultiQueryEngine sequential(seed);
  MultiQueryEngine parallel(seed);
  RegisterAll(sequential, sequential_workload.specs());
  RegisterAll(parallel, parallel_workload.specs());

  ThreadPool pool(4);
  for (int batch = 0; batch < 3; ++batch) {
    const std::vector<StreamEvent> events =
        sequential_workload.GenerateEvents(1500);
    ASSERT_TRUE(sequential.ProcessBatch(events).ok());
    ASSERT_TRUE(parallel.ProcessBatchParallel(events, pool).ok());
  }

  for (size_t qid = 0; qid < sequential.num_queries(); ++qid) {
    EXPECT_EQ(parallel.SerializeQueryState(qid),
              sequential.SerializeQueryState(qid))
        << "parallel fan-out diverges for query " << qid;
    EXPECT_EQ(WindowBytes(parallel.Poll(qid)),
              WindowBytes(sequential.Poll(qid)));
  }
}

TEST(MultiQueryEngineTest, DuplicateQueriesShareStateButPollIndependently) {
  MultiQueryEngine engine(7);
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kCountDistinct;
  options.window_size = 10;
  const auto a = engine.AddQuery(options);
  const auto b = engine.AddQuery(options);
  EXPECT_EQ(engine.num_queries(), 2u);
  EXPECT_EQ(engine.num_physical_queries(), 1u);

  std::vector<StreamEvent> events;
  for (uint64_t t = 0; t < 25; ++t) {
    events.push_back(StreamEvent{t, t % 3, t * 11, 1});
  }
  ASSERT_TRUE(engine.ProcessBatch(events).ok());

  // Both views see the same two closed windows, each exactly once.
  const auto windows_a = engine.Poll(a);
  ASSERT_EQ(windows_a.size(), 2u);
  EXPECT_EQ(WindowBytes(engine.Poll(b)), WindowBytes(windows_a));
  EXPECT_TRUE(engine.Poll(a).empty());
  EXPECT_TRUE(engine.Poll(b).empty());

  // A view that lags behind still gets every window when it catches up.
  std::vector<StreamEvent> more;
  for (uint64_t t = 25; t < 45; ++t) {
    more.push_back(StreamEvent{t, t % 3, t * 11, 1});
  }
  ASSERT_TRUE(engine.ProcessBatch(more).ok());
  ASSERT_EQ(engine.Poll(a).size(), 2u);
  ASSERT_EQ(engine.Poll(b).size(), 2u);
}

TEST(MultiQueryEngineTest, QuantilePointsPreventStateSharing) {
  // Two quantile queries over the same sketch parameters but different
  // read points must not share a result view (the StreamQuery checkpoint
  // fingerprint ignores quantile_points, but results differ).
  MultiQueryEngine engine(1);
  StreamQuery::Options options;
  options.aggregate = AggregateKind::kQuantiles;
  options.window_size = 10;
  options.quantile_points = {0.5};
  (void)engine.AddQuery(options);
  options.quantile_points = {0.9};
  (void)engine.AddQuery(options);
  EXPECT_EQ(engine.num_physical_queries(), 2u);

  // Same options but different filter sets must not share either.
  MultiQueryEngine filtered(1);
  const auto f =
      filtered.RegisterFilter([](const StreamEvent& e) { return e.value > 0; });
  StreamQuery::Options plain;
  (void)filtered.AddQuery(plain);
  const MultiQueryEngine::FilterId ids[] = {f};
  (void)filtered.AddQuery(plain, ids);
  EXPECT_EQ(filtered.num_physical_queries(), 2u);
}

TEST(MultiQueryEngineTest, EngineCheckpointRoundTrips) {
  MultiQueryWorkloadOptions wopt;
  wopt.num_queries = 48;
  wopt.overlap = 0.5;
  wopt.num_groups = 24;
  wopt.window_size = 128;
  wopt.events_per_tick = 4;
  wopt.seed = 21;
  MultiQueryWorkload workload(wopt);

  MultiQueryEngine engine(55);
  RegisterAll(engine, workload.specs());
  const std::vector<StreamEvent> first = workload.GenerateEvents(1200);
  ASSERT_TRUE(engine.ProcessBatch(first).ok());
  // Let some cursors advance so the checkpoint carries nontrivial views.
  (void)engine.Poll(0);
  (void)engine.Poll(3);
  const std::vector<uint8_t> checkpoint = engine.SerializeState();

  MultiQueryEngine restored(55);
  RegisterAll(restored, workload.specs());
  ASSERT_TRUE(restored.RestoreState(checkpoint).ok());
  EXPECT_EQ(restored.SerializeState(), checkpoint);

  const std::vector<StreamEvent> second = workload.GenerateEvents(900);
  ASSERT_TRUE(engine.ProcessBatch(second).ok());
  ASSERT_TRUE(restored.ProcessBatch(second).ok());
  engine.Flush();
  restored.Flush();
  for (size_t qid = 0; qid < engine.num_queries(); ++qid) {
    EXPECT_EQ(restored.SerializeQueryState(qid),
              engine.SerializeQueryState(qid));
    EXPECT_EQ(WindowBytes(restored.Poll(qid)), WindowBytes(engine.Poll(qid)));
  }
}

TEST(MultiQueryEngineTest, RestoreRejectsDamageAndMismatchedRegistration) {
  MultiQueryWorkloadOptions wopt;
  wopt.num_queries = 12;
  wopt.overlap = 0.3;
  wopt.window_size = 64;
  wopt.seed = 5;
  MultiQueryWorkload workload(wopt);
  MultiQueryEngine engine(9);
  RegisterAll(engine, workload.specs());
  ASSERT_TRUE(engine.ProcessBatch(workload.GenerateEvents(600)).ok());
  const std::vector<uint8_t> checkpoint = engine.SerializeState();

  // The trailing whole-image checksum catches damage anywhere.
  for (size_t i = 0; i < checkpoint.size();
       i += 1 + checkpoint.size() / 64) {
    std::vector<uint8_t> damaged = checkpoint;
    damaged[i] ^= 0x40;
    MultiQueryEngine victim(9);
    RegisterAll(victim, workload.specs());
    EXPECT_EQ(victim.RestoreState(damaged).code(), StatusCode::kCorruption)
        << "flipped byte " << i;
  }

  // A view cursor past its group's cached results, re-sealed so only the
  // body check can catch it: the last view's cursor is the body's last
  // eight bytes.
  {
    std::vector<uint8_t> forged = checkpoint;
    const size_t body = forged.size() - 8;
    forged[body - 1] = 0x7f;
    const uint64_t checksum = XxHash64(forged.data(), body, 0x4D4D5347);
    for (int i = 0; i < 8; ++i) {
      forged[body + i] = static_cast<uint8_t>(checksum >> (8 * i));
    }
    MultiQueryEngine victim(9);
    RegisterAll(victim, workload.specs());
    EXPECT_EQ(victim.RestoreState(forged).code(), StatusCode::kCorruption);
  }

  // Fewer registered queries than the checkpoint expects.
  MultiQueryEngine smaller(9);
  std::vector<MultiQuerySpec> fewer(workload.specs().begin(),
                                    workload.specs().end() - 1);
  RegisterAll(smaller, fewer);
  EXPECT_EQ(smaller.RestoreState(checkpoint).code(),
            StatusCode::kInvalidArgument);

  // Different seed.
  MultiQueryEngine reseeded(10);
  RegisterAll(reseeded, workload.specs());
  EXPECT_EQ(reseeded.RestoreState(checkpoint).code(),
            StatusCode::kInvalidArgument);
}

uint64_t Fnv1a(uint64_t h, const std::vector<uint8_t>& bytes) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

TEST(MultiQueryEngineTest, PinnedResultsAndCheckpoint) {
  // The benchmark's standing query set (256 queries, 50% overlap, seed 17)
  // over eight 2,048-event calls: 2,048 ticks, so tumbling windows close
  // and sliding windows emit. The digests were taken from the per-event
  // apply loop that predates group runs; they pin byte identity with it,
  // which engine-vs-solo equality alone cannot (both sides share the
  // batched core).
  MultiQueryWorkloadOptions wopt;
  wopt.num_queries = 256;
  wopt.overlap = 0.5;
  wopt.num_groups = 64;
  wopt.window_size = 1024;
  wopt.events_per_tick = 8;
  wopt.seed = 17;
  MultiQueryWorkload workload(wopt);
  MultiQueryEngine engine(99);
  RegisterAll(engine, workload.specs());
  ASSERT_EQ(engine.num_physical_queries(), 110u);

  uint64_t polls = kFnvBasis;
  size_t windows = 0;
  for (int call = 0; call < 8; ++call) {
    ASSERT_TRUE(engine.ProcessBatch(workload.GenerateEvents(2048)).ok());
    for (size_t q = 0; q < engine.num_queries(); ++q) {
      const std::vector<WindowResult> polled = engine.Poll(q);
      windows += polled.size();
      polls = Fnv1a(polls, WindowBytes(polled));
    }
  }
  EXPECT_GT(windows, 0u);
  EXPECT_EQ(polls, 0x94039c8efc075e8cull) << std::hex << polls;
  const uint64_t state = Fnv1a(kFnvBasis, engine.SerializeState());
  EXPECT_EQ(state, 0xb6dc4d797fc1bc8eull) << std::hex << state;
}

// ------------------------------------------- Group runs vs per-event Process

/// Every aggregate x window shape the engine runs, over mixed periods: one
/// unbounded window, tumbling 7, sliding 12/3 and sliding 1/1 (SUM has no
/// sliding form).
std::vector<StreamQuery::Options> GroupRunShapes() {
  std::vector<StreamQuery::Options> shapes;
  for (AggregateKind aggregate :
       {AggregateKind::kCountDistinct, AggregateKind::kTopK,
        AggregateKind::kQuantiles, AggregateKind::kSum}) {
    for (auto [window_size, slide] :
         {std::pair<uint64_t, uint64_t>{0, 0}, {7, 0}, {12, 3}, {1, 1}}) {
      if (aggregate == AggregateKind::kSum && slide > 0) continue;
      StreamQuery::Options options;
      options.aggregate = aggregate;
      options.window_size = window_size;
      options.slide = slide;
      options.hll_precision = 6;
      options.top_k_capacity = 4;  // Small, so evictions happen.
      options.top_k = 3;
      options.kll_k = 8;  // Small, so compactions draw from the RNG.
      options.quantile_points = {0.1, 0.5, 0.9};
      shapes.push_back(options);
    }
  }
  return shapes;
}

/// Filters for the edge cases: one rejects whole groups (so whole runs),
/// one rejects single events.
std::vector<std::function<bool(const StreamEvent&)>> GroupRunFilters() {
  return {[](const StreamEvent& e) { return e.group % 3 != 0; },
          [](const StreamEvent& e) { return e.item % 4 != 1; }};
}

/// Timestamps advance by 0-3 ticks per event (so runs of equal timestamps,
/// and chunks that straddle many boundaries), over 5 groups.
std::vector<StreamEvent> GroupRunEvents(Rng& rng, uint64_t* clock, size_t n) {
  std::vector<StreamEvent> events;
  for (size_t i = 0; i < n; ++i) {
    *clock += rng.NextBounded(4);
    events.push_back(StreamEvent{*clock, rng.NextBounded(5),
                                 rng.NextBounded(40),
                                 static_cast<int64_t>(rng.NextBounded(7)) - 1});
  }
  return events;
}

/// The three group-run paths — one engine query, one independent
/// StreamQuery fed through ProcessBatch, and one fed through
/// ProcessBatchParallel on a 3-thread pool — per (shape, filter set), next
/// to the reference: an independent StreamQuery fed per event through
/// Process().
struct RunHarness {
  explicit RunHarness(uint64_t seed) : engine(seed), pool(3) {
    const auto filters = GroupRunFilters();
    for (const auto& filter : filters) engine.RegisterFilter(filter);
    for (const StreamQuery::Options& options : GroupRunShapes()) {
      for (size_t mask = 0; mask < 4; ++mask) {
        std::vector<MultiQueryEngine::FilterId> ids;
        StreamQuery reference(options, seed);
        StreamQuery solo(options, seed);
        StreamQuery dealt(options, seed);
        for (size_t f = 0; f < filters.size(); ++f) {
          if ((mask >> f) & 1) {
            ids.push_back(f);
            reference.AddFilter(filters[f]);
            solo.AddFilter(filters[f]);
            dealt.AddFilter(filters[f]);
          }
        }
        engine.AddQuery(options, ids);
        references.push_back(std::move(reference));
        batched.push_back(std::move(solo));
        parallel.push_back(std::move(dealt));
      }
    }
  }

  /// Feeds `events` to every side; the statuses must match too.
  void Feed(std::span<const StreamEvent> events) {
    const Status got = engine.ProcessBatch(events);
    Status first = Status::Ok();
    for (size_t q = 0; q < references.size(); ++q) {
      Status want = Status::Ok();
      for (const StreamEvent& event : events) {
        want = references[q].Process(event);
        if (!want.ok()) break;
      }
      EXPECT_EQ(batched[q].ProcessBatch(events).ToString(), want.ToString())
          << "query " << q;
      EXPECT_EQ(parallel[q].ProcessBatchParallel(events, pool).ToString(),
                want.ToString())
          << "query " << q;
      if (first.ok()) first = want;
    }
    EXPECT_EQ(got.ToString(), first.ToString());
  }

  /// Flushes every side; the flushed windows must match.
  void ExpectSameFlush() {
    engine.Flush();
    for (size_t q = 0; q < references.size(); ++q) {
      const std::vector<uint8_t> windows = WindowBytes(references[q].Flush());
      ASSERT_EQ(WindowBytes(batched[q].Flush()), windows) << "query " << q;
      ASSERT_EQ(WindowBytes(parallel[q].Flush()), windows) << "query " << q;
      ASSERT_EQ(WindowBytes(engine.Poll(q)), windows) << "query " << q;
    }
    ExpectSame();
  }

  void ExpectSame() {
    for (size_t q = 0; q < references.size(); ++q) {
      const std::vector<uint8_t> want = references[q].SerializeState();
      ASSERT_EQ(engine.SerializeQueryState(q), want) << "query " << q;
      ASSERT_EQ(batched[q].SerializeState(), want) << "query " << q;
      ASSERT_EQ(parallel[q].SerializeState(), want) << "query " << q;
      const std::vector<uint8_t> windows = WindowBytes(references[q].Poll());
      ASSERT_EQ(WindowBytes(engine.Poll(q)), windows) << "query " << q;
      ASSERT_EQ(WindowBytes(batched[q].Poll()), windows) << "query " << q;
      ASSERT_EQ(WindowBytes(parallel[q].Poll()), windows) << "query " << q;
    }
  }

  /// Restores every side from `from`'s checkpoints.
  void RestoreFrom(const RunHarness& from) {
    ASSERT_TRUE(engine.RestoreState(from.engine.SerializeState()).ok());
    for (size_t q = 0; q < references.size(); ++q) {
      ASSERT_TRUE(references[q]
                      .RestoreState(from.references[q].SerializeState())
                      .ok());
      ASSERT_TRUE(
          batched[q].RestoreState(from.batched[q].SerializeState()).ok());
      ASSERT_TRUE(
          parallel[q].RestoreState(from.parallel[q].SerializeState()).ok());
    }
  }

  MultiQueryEngine engine;
  ThreadPool pool;
  std::vector<StreamQuery> references;
  std::vector<StreamQuery> batched;
  std::vector<StreamQuery> parallel;
};

TEST(MultiQueryGroupRunTest, ChunksStraddlingBoundariesMatchPerEvent) {
  RunHarness h(31);
  Rng rng(1);
  uint64_t clock = 5;
  for (size_t n : {1, 300, 2, 1000, 57, 1, 1, 640}) {
    h.Feed(GroupRunEvents(rng, &clock, n));
    h.ExpectSame();
    if (HasFatalFailure()) return;
  }
  h.ExpectSameFlush();
}

TEST(MultiQueryGroupRunTest, OneEventChunksMatchPerEvent) {
  RunHarness h(32);
  Rng rng(2);
  uint64_t clock = 0;
  const std::vector<StreamEvent> events = GroupRunEvents(rng, &clock, 400);
  for (size_t i = 0; i < events.size(); ++i) {
    h.Feed(std::span<const StreamEvent>(events).subspan(i, 1));
    if (i % 50 == 0) h.ExpectSame();
    if (HasFatalFailure()) return;
  }
  h.ExpectSame();
}

TEST(MultiQueryGroupRunTest, OutOfOrderEventMidChunkStopsLikeProcess) {
  RunHarness h(33);
  Rng rng(3);
  uint64_t clock = 100;
  h.Feed(GroupRunEvents(rng, &clock, 200));
  // An inversion mid-chunk: the prefix before it applies, then the same
  // FailedPrecondition as Process().
  std::vector<StreamEvent> chunk = GroupRunEvents(rng, &clock, 300);
  chunk[150].timestamp = chunk[149].timestamp - 1;
  h.Feed(chunk);
  h.ExpectSame();
  if (HasFatalFailure()) return;
  // A chunk that starts before the last accepted timestamp fails at once.
  std::vector<StreamEvent> stale = GroupRunEvents(rng, &clock, 10);
  stale[0].timestamp = chunk[148].timestamp - 2;
  h.Feed(stale);
  h.ExpectSame();
  if (HasFatalFailure()) return;
  // Ingest resumes from the last applied timestamp.
  clock = chunk[149].timestamp;
  h.Feed(GroupRunEvents(rng, &clock, 500));
  h.ExpectSame();
}

TEST(MultiQueryGroupRunTest, CheckpointMidStreamThenContinue) {
  RunHarness h(34);
  Rng rng(4);
  uint64_t clock = 0;
  h.Feed(GroupRunEvents(rng, &clock, 700));
  // Some results polled, some left in the checkpoint.
  (void)h.engine.Poll(0);
  (void)h.references[0].Poll();
  (void)h.batched[0].Poll();
  (void)h.parallel[0].Poll();

  RunHarness restored(34);
  restored.RestoreFrom(h);
  if (HasFatalFailure()) return;
  for (size_t n : {333, 1, 900}) {
    const std::vector<StreamEvent> events = GroupRunEvents(rng, &clock, n);
    restored.Feed(events);
    restored.ExpectSame();
    if (HasFatalFailure()) return;
  }
}

TEST(MultiQueryWorkloadTest, DeterministicAndOverlapScales) {
  MultiQueryWorkloadOptions wopt;
  wopt.num_queries = 128;
  wopt.overlap = 0.5;
  wopt.seed = 77;
  MultiQueryWorkload one(wopt);
  MultiQueryWorkload two(wopt);
  ASSERT_EQ(one.specs().size(), two.specs().size());
  const std::vector<StreamEvent> e1 = one.GenerateEvents(500);
  const std::vector<StreamEvent> e2 = two.GenerateEvents(500);
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].timestamp, e2[i].timestamp);
    EXPECT_EQ(e1[i].group, e2[i].group);
    EXPECT_EQ(e1[i].item, e2[i].item);
    EXPECT_EQ(e1[i].value, e2[i].value);
  }

  // Higher overlap → fewer physical queries.
  MultiQueryEngine low_engine(1);
  RegisterAll(low_engine, one.specs());
  wopt.overlap = 0.9;
  MultiQueryWorkload heavy(wopt);
  MultiQueryEngine high_engine(1);
  RegisterAll(high_engine, heavy.specs());
  EXPECT_LT(high_engine.num_physical_queries(),
            low_engine.num_physical_queries());
}

}  // namespace
}  // namespace gems
