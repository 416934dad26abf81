#ifndef GEMS_ENGINE_STREAM_QUERY_H_
#define GEMS_ENGINE_STREAM_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
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
  /// DISTINCT items are hashed once per chunk, and the chunk goes through
  /// ProcessBatchPrehashed. Window, ordering, and filter semantics are
  /// identical to calling Process() per event, and the resulting state is
  /// byte-identical. Stops at the first error, with every event before it
  /// applied.
  Status ProcessBatch(std::span<const StreamEvent> events);

  /// Multi-core variant of ProcessBatch: events are partitioned by
  /// group-key hash, so each pool worker owns a disjoint slice of the
  /// GROUP-BY table and updates its groups' sketches with no locks. Window
  /// advancement and filters stay sequential (they are ordered and cheap);
  /// the sketch updates — the hot part of the Gigascope-style
  /// many-sketches workload — run in parallel per window segment. Because
  /// a group's events are all owned by one worker and applied in stream
  /// order, the resulting state is byte-identical (SerializeState) to
  /// calling Process() per event. Stops at the first error; events routed
  /// before the error are applied.
  Status ProcessBatchParallel(std::span<const StreamEvent> events,
                              ThreadPool& pool);

  /// The batched ingest core, shared by ProcessBatch and MultiQueryEngine:
  /// applies `events` run by run along `runs`, which must have been built
  /// from `events` with this query's window size or slide among the
  /// periods (checked: a mismatch aborts). Each segment advances the window once; each run looks its
  /// group up once, and a sliding run opens its pane once, at the
  /// timestamp of its last accepted event.
  ///
  ///  - `hashes`, when non-empty, parallels `events` with
  ///    hashes[i] == Hash64(events[i].item, seed); COUNT DISTINCT (sliding
  ///    or not) feeds the words straight into the HLLs instead of
  ///    re-hashing. Ignored (and may be empty) for other aggregates.
  ///  - `accept`, when non-empty, parallels `events`; an event with
  ///    accept[i] == 0 is dropped exactly as if a filter rejected it.
  ///    Filters attached with AddFilter() still apply on top.
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
  struct GroupState {
    std::optional<HyperLogLog> distinct;
    std::optional<SlidingHyperLogLog> sliding;  // Sliding kCountDistinct.
    std::optional<PaneRing<SpaceSaving>> sliding_top;       // Sliding kTopK.
    std::optional<PaneRing<KllSketch>> sliding_quantiles;   // Sliding kQuantiles.
    std::optional<SpaceSaving> top;
    std::optional<KllSketch> quantiles;
    int64_t sum = 0;
  };

  GroupState& StateFor(uint64_t group);
  /// Validates ordering, initializes/advances the window, and updates
  /// last_timestamp_ for a span of in-order events with timestamps `first`
  /// to `last` that crosses no window or slide boundary after its first
  /// event (a single event passes first == last).
  Status AdvanceWindow(uint64_t first, uint64_t last);
  bool PassesFilters(const StreamEvent& event) const;
  /// Applies one accepted event to its group's aggregate state (the
  /// per-event reference path of Process()).
  void ApplyEvent(const StreamEvent& event);
  void CloseWindow(uint64_t next_window_start);
  /// Sliding mode: emits the window ending at `boundary` (exclusive) over
  /// every group's pane ring, without clearing the group table.
  void EmitSlidingWindow(uint64_t boundary);
  GroupAggregate Snapshot(uint64_t group, const GroupState& state) const;
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
