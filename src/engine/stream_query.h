#ifndef GEMS_ENGINE_STREAM_QUERY_H_
#define GEMS_ENGINE_STREAM_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <variant>
#include <vector>

#include "cardinality/hyperloglog.h"
#include "common/bytes.h"
#include "common/flat_map.h"
#include "common/status.h"
#include "distributed/concurrent/concurrent_summary.h"
#include "distributed/thread_pool.h"
#include "frequency/space_saving.h"
#include "quantiles/kll.h"
#include "time/pane_ring.h"
#include "time/sliding_hll.h"

/// \file
/// A miniature stream-query engine in the mold of the network-era systems
/// the paper surveys (AT&T's Gigascope, Sprint's CMON): continuous
/// GROUP BY aggregate queries over event streams, where each group's
/// aggregate is a sketch rather than exact state — the "maintain huge
/// numbers of sketches in parallel" workload the paper emphasizes.
/// Supports filters, tumbling windows, sliding windows (COUNT DISTINCT,
/// TOP-K, and QUANTILES over per-group pane rings), and three sketch
/// aggregates (COUNT DISTINCT via HLL, TOP-K via SpaceSaving, QUANTILES
/// via KLL). Many standing queries over one stream share a single ingest
/// pass through MultiQueryEngine (engine/multi_query.h).

namespace gems {

/// One input event: a timestamped (group, item, value) record. For the IP
/// monitoring scenario: group = destination, item = source, value = bytes.
struct StreamEvent {
  uint64_t timestamp = 0;
  uint64_t group = 0;
  uint64_t item = 0;
  int64_t value = 1;
};

/// Aggregate computed per group.
enum class AggregateKind {
  kCountDistinct,  // # distinct items per group (HLL).
  kTopK,           // Heaviest items per group by value (SpaceSaving).
  kQuantiles,      // Quantiles of value per group (KLL).
  kSum,            // Exact sum of value per group (baseline aggregate).
};

/// Result for one group in one closed window.
struct GroupAggregate {
  uint64_t group = 0;
  /// kCountDistinct / kSum: the estimate or exact sum.
  double scalar = 0.0;
  /// kTopK: (item, estimated count), heaviest first.
  std::vector<std::pair<uint64_t, int64_t>> top_items;
  /// kQuantiles: values at the query's configured quantile points.
  std::vector<double> quantiles;
};

/// One closed tumbling window.
struct WindowResult {
  uint64_t window_start = 0;
  uint64_t window_end = 0;  // Exclusive.
  std::vector<GroupAggregate> groups;  // Sorted by group id.
};

/// A chunk of events cut into group runs: the unit the batched ingest core
/// (StreamQuery::ProcessBatchPrehashed) walks. The chunk is cut into
/// segments at every multiple of any given period (a window size or a
/// slide), so no segment crosses a window or slide boundary of any query
/// built with those periods; within each segment, a stable counting sort
/// partitions the event indices by group, one run per group. Each group's
/// events keep their stream order, which is what keeps run-wise ingest
/// byte-identical to per-event Process(). Runs cover only the prefix
/// before the first out-of-order timestamp. Read-only once built, so
/// several queries may walk one GroupRuns concurrently.
class GroupRuns {
 public:
  /// One group's events in a segment: order()[begin, end).
  struct Run {
    uint64_t group;
    uint32_t begin;
    uint32_t end;
  };
  /// Events [begin, end) of the chunk, whose runs are runs()[first_run,
  /// end_run).
  struct Segment {
    uint32_t begin;
    uint32_t end;
    uint32_t first_run;
    uint32_t end_run;
  };

  /// Rebuilds the runs of `events` (at most 2^32 - 1 of them); zero
  /// periods are ignored.
  void Build(std::span<const StreamEvent> events,
             std::span<const uint64_t> periods);

  std::span<const Segment> segments() const { return segments_; }
  std::span<const Run> runs() const { return runs_; }
  /// Event indices, grouped run by run.
  std::span<const uint32_t> order() const { return order_; }
  /// Number of leading events in non-decreasing timestamp order; the runs
  /// cover exactly these.
  size_t ordered_prefix() const { return ordered_prefix_; }
  /// True if the runs were last built from exactly `events` (same span).
  bool BuiltFrom(std::span<const StreamEvent> events) const {
    return events.data() == source_.data() && events.size() == source_.size();
  }
  /// True if no segment crosses a multiple of `period` (0: no boundaries).
  bool CutsAt(uint64_t period) const {
    return period == 0 ||
           std::find(periods_.begin(), periods_.end(), period) !=
               periods_.end();
  }

 private:
  std::span<const StreamEvent> source_;  // Compared only, never read.
  std::vector<uint64_t> periods_;
  std::vector<Segment> segments_;
  std::vector<Run> runs_;
  std::vector<uint32_t> order_;
  size_t ordered_prefix_ = 0;
  // Build scratch: each distinct group of the chunk gets a dense id.
  std::vector<uint32_t> dense_table_;  // group lookup: dense id + 1, 0 empty.
  std::vector<uint64_t> dense_group_;  // dense id -> group.
  std::vector<uint32_t> event_dense_;  // event index -> dense id.
  std::vector<uint32_t> count_;        // dense id -> count, then cursor.
  std::vector<uint32_t> touched_;      // dense ids seen in the segment.
};

/// A continuous GROUP BY sketch-aggregate query.
class StreamQuery {
 public:
  struct Options {
    AggregateKind aggregate = AggregateKind::kCountDistinct;
    /// Tumbling window size in timestamp units; 0 = one unbounded window
    /// (results only via Flush()).
    uint64_t window_size = 0;
    /// Sliding mode: when nonzero, a result covering the trailing
    /// window_size units is emitted every `slide` units instead of the
    /// window tumbling. Requires window_size > 0 with window_size a
    /// multiple of slide, and a sketch aggregate (kCountDistinct, kTopK,
    /// or kQuantiles — kSum has no mergeable summary to put in a pane) —
    /// each group's state becomes a pane ring with pane_width = slide,
    /// and groups persist across slide boundaries.
    uint64_t slide = 0;
    /// HLL precision for kCountDistinct.
    int hll_precision = 12;
    /// SpaceSaving capacity and reported k for kTopK.
    size_t top_k_capacity = 64;
    size_t top_k = 10;
    /// KLL parameter and query points for kQuantiles.
    uint32_t kll_k = 200;
    std::vector<double> quantile_points = {0.5, 0.95, 0.99};
  };

  StreamQuery(const Options& options, uint64_t seed);

  StreamQuery(const StreamQuery&) = delete;
  StreamQuery& operator=(const StreamQuery&) = delete;
  StreamQuery(StreamQuery&&) = default;
  StreamQuery& operator=(StreamQuery&&) = default;

  /// Optional pre-aggregation filter; events failing any filter are
  /// dropped. Returns *this for chaining.
  StreamQuery& AddFilter(std::function<bool(const StreamEvent&)> predicate);

  /// Mirrors every accepted (post-filter) event's item into `live`, a
  /// wait-free concurrent HLL that other threads can query while this
  /// query ingests — the stream-wide live distinct count, across groups
  /// and windows. Only valid for kCountDistinct queries; `live` should be
  /// built with the query's precision and seed and must outlive the
  /// query. Window closes flush the query thread's residual so a reader
  /// is never more than one window plus one local buffer stale. Returns
  /// *this for chaining.
  StreamQuery& PublishDistinctTo(ConcurrentSummary<HyperLogLog>* live);

  /// Processes one event. Timestamps must be non-decreasing; an event in a
  /// later window closes the current one.
  Status Process(const StreamEvent& event);

  /// Processes a batch of events through the group-run core: each chunk is
  /// cut into GroupRuns at this query's window (or slide) boundaries, COUNT
  /// DISTINCT items are hashed once per chunk, AddFilter predicates are
  /// evaluated into an accept column, and the chunk goes through the
  /// ProcessBatchPrehashed core. Window, ordering, and filter semantics are
  /// identical to calling Process() per event, and the resulting state is
  /// byte-identical. Stops at the first error, with every event before it
  /// applied.
  Status ProcessBatch(std::span<const StreamEvent> events);

  /// Multi-core ProcessBatch: the same chunk loop and group-run core, with
  /// each window segment's runs dealt to the pool's workers. A run is one
  /// group's events in stream order, so every group is updated by one
  /// worker and no two workers share state. Window advancement, group
  /// creation, filter predicates and the live-distinct mirror stay on the
  /// calling thread; workers only apply runs. Covers every aggregate and
  /// window shape, sliding included. The resulting state is byte-identical
  /// (SerializeState) to calling Process() per event. Stops at the first
  /// error, with every event before it applied.
  Status ProcessBatchParallel(std::span<const StreamEvent> events,
                              ThreadPool& pool);

  /// The batched ingest core, shared by ProcessBatch, ProcessBatchParallel
  /// and MultiQueryEngine: applies `events` run by run along `runs`, which
  /// must have been built from `events` with this query's window size or
  /// slide among the periods (checked: a mismatch aborts). Each segment
  /// advances the window once; each run looks its group up once, and a
  /// sliding run opens its pane once, at the timestamp of its last
  /// accepted event.
  ///
  ///  - `hashes`, when non-empty, parallels `events` with
  ///    hashes[i] == Hash64(events[i].item, seed); COUNT DISTINCT (sliding
  ///    or not) feeds the words straight into the HLLs, and hashes the
  ///    items once itself when `hashes` is empty. Ignored for other
  ///    aggregates.
  ///  - `accept`, when non-empty, parallels `events`; an event with
  ///    accept[i] == 0 is dropped exactly as if a filter rejected it. It is
  ///    the only filter the core applies: predicates attached with
  ///    AddFilter() are not evaluated here (ProcessBatch folds them into
  ///    `accept` first).
  ///
  /// Window, ordering, and error semantics are identical to calling
  /// Process() per event, and the resulting state is byte-identical
  /// (SerializeState): an out-of-order event fails with the status
  /// Process() gives it, after every event before it is applied. Does not
  /// mutate `runs`, so concurrent calls on distinct queries may share it.
  Status ProcessBatchPrehashed(std::span<const StreamEvent> events,
                               const GroupRuns& runs,
                               std::span<const uint64_t> hashes,
                               std::span<const uint8_t> accept);

  /// Drains windows closed so far.
  std::vector<WindowResult> Poll();

  /// Closes the current window regardless of time and returns all results.
  std::vector<WindowResult> Flush();

  /// Number of sketches currently held (open window groups).
  size_t NumOpenGroups() const;

  /// Serializes the query's dynamic state — window bookkeeping, every open
  /// group's sketches (as standard wire envelopes via the sketch registry),
  /// and windows closed but not yet polled — so a long-running query can be
  /// checkpointed and resumed after a restart. Filters are code, not state,
  /// and are not serialized.
  std::vector<uint8_t> SerializeState() const;

  /// Restores state produced by SerializeState into this query. The query
  /// must have been constructed with the same Options and seed (mismatches
  /// are kInvalidArgument); malformed bytes are kCorruption and leave the
  /// query untouched. Existing dynamic state is replaced on success.
  Status RestoreState(std::span<const uint8_t> bytes);

  const Options& options() const { return options_; }

 private:
  /// One group's aggregate state: exactly the one thing the query's
  /// aggregate and window shape need, as NewState() builds it. SUM keeps
  /// an exact total; COUNT DISTINCT, TOP-K and QUANTILES keep an HLL,
  /// SpaceSaving or KLL sketch, or for a sliding window a pane ring of
  /// it. The alternative order fixes the checkpoint's presence bits.
  using GroupState =
      std::variant<int64_t, HyperLogLog, SpaceSaving, KllSketch,
                   SlidingHyperLogLog, PaneRing<SpaceSaving>,
                   PaneRing<KllSketch>>;

  /// The empty state of `group`: the only code that maps (aggregate,
  /// window shape) to a sketch. Group creation, checkpoint restore and
  /// its parameter checks all start from it.
  GroupState NewState(uint64_t group) const;
  GroupState& StateFor(uint64_t group);
  /// Validates ordering, initializes/advances the window, and updates
  /// last_timestamp_ for a span of in-order events with timestamps `first`
  /// to `last` that crosses no window or slide boundary after its first
  /// event (a single event passes first == last).
  Status AdvanceWindow(uint64_t first, uint64_t last);
  bool PassesFilters(const StreamEvent& event) const;
  /// The chunk loop of ProcessBatch (`pool` null) and ProcessBatchParallel.
  Status ProcessChunks(std::span<const StreamEvent> events, ThreadPool* pool);
  /// The group-run core of ProcessBatchPrehashed; with a pool of more than
  /// one thread, each segment's runs are applied on the pool.
  Status ApplyRuns(std::span<const StreamEvent> events, const GroupRuns& runs,
                   std::span<const uint64_t> hashes,
                   std::span<const uint8_t> accept, ThreadPool* pool);
  /// Applies the accepted events among order[begin, end) of `events`, one
  /// group's run, to `state`; the event at order[end - 1] is accepted.
  /// Touches nothing but `state`, so pool workers may run it concurrently
  /// on distinct groups.
  static void ApplyRun(GroupState& state, std::span<const StreamEvent> events,
                       std::span<const uint32_t> order, uint32_t begin,
                       uint32_t end, std::span<const uint64_t> hashes,
                       std::span<const uint8_t> accept);
  void CloseWindow(uint64_t next_window_start);
  /// Sliding mode: emits the window ending at `boundary` (exclusive) over
  /// every group's pane ring, without clearing the group table.
  void EmitSlidingWindow(uint64_t boundary);
  /// Appends the result of [start, end) over every open group; sliding
  /// groups are read as of `end`.
  void EmitWindow(uint64_t start, uint64_t end);
  /// The open groups as (group id, state) pairs sorted by group id — the
  /// flat table iterates in hash order, so ordered emission (window
  /// snapshots, checkpoints) sorts here.
  std::vector<std::pair<uint64_t, GroupState*>> SortedGroups() const;

  Options options_;
  uint64_t seed_;
  ConcurrentSummary<HyperLogLog>* live_distinct_ = nullptr;
  std::vector<std::function<bool(const StreamEvent&)>> filters_;
  uint64_t current_window_start_ = 0;
  bool window_initialized_ = false;
  uint64_t last_timestamp_ = 0;
  FlatMap64<GroupState> groups_;
  std::deque<WindowResult> closed_;
};

namespace engine_detail {

/// Serialization of materialized window results, shared between the
/// StreamQuery checkpoint and the MultiQueryEngine's per-view result
/// caches (multi_query.cc).
void SerializeWindows(ByteWriter& w, const std::deque<WindowResult>& windows);
Status DeserializeWindows(ByteReader& r, std::deque<WindowResult>* out);

/// The sketch knobs that actually shape a query's state and results,
/// with every knob the aggregate does not read zeroed out: a SUM query's
/// kll_k setting, a COUNT DISTINCT query's top_k_capacity, and so on are
/// canonicalized away. Checkpoint fingerprints (version 3+) and the
/// MultiQueryEngine's state-dedup key are built from this, so two queries
/// that differ only in unused knobs are byte-identical — and shareable.
struct OptionKnobs {
  uint8_t hll_precision = 0;
  uint64_t top_k_capacity = 0;
  uint64_t top_k = 0;
  uint32_t kll_k = 0;
};

OptionKnobs RelevantKnobs(const StreamQuery::Options& options);

}  // namespace engine_detail

}  // namespace gems

#endif  // GEMS_ENGINE_STREAM_QUERY_H_
