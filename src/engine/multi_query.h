#ifndef GEMS_ENGINE_MULTI_QUERY_H_
#define GEMS_ENGINE_MULTI_QUERY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "distributed/thread_pool.h"
#include "engine/stream_query.h"
#include "hash/hashed_batch.h"

/// \file
/// Shared-ingest execution for many standing queries over one stream — the
/// paper's "maintain huge numbers of sketches in parallel" workload at the
/// query layer. N independent StreamQuerys cost N passes over the stream:
/// every event is filtered N times and its item hashed once per COUNT
/// DISTINCT query. MultiQueryEngine registers all N queries up front and
/// ingests in ONE pass:
///
///  - **Filter dedup.** Predicates are registered once and referenced by id;
///    each distinct predicate is evaluated once per event into a byte
///    column, then AND-combined per query. 200 queries sharing 10
///    predicates cost 10 evaluations per event, not 200.
///  - **Hash once.** All queries share the engine seed, so the event
///    chunk's item column is hashed exactly once (HashedBatch) and the same
///    words feed every COUNT DISTINCT query's HLLs.
///  - **Route once.** Each chunk is cut into GroupRuns once for all
///    queries: segments at every query's window and slide boundaries, and
///    within each a stable partition of the events by group. Every
///    physical query walks the same runs, advancing its window once per
///    segment and finding its group once per run.
///  - **State dedup.** Queries whose (Options, filter set) coincide — same
///    aggregate, parameters, window geometry, and predicates under the
///    shared seed — would build byte-identical sketches, so they share one
///    physical StreamQuery. Each registered query keeps its own result view
///    (cursor over the shared query's emitted windows), so sharing is
///    invisible at the API.
///
/// Per-query results and checkpoints stay byte-identical (SerializeState)
/// to running N independent StreamQuerys with the same options, seed, and
/// filters — sharing is purely an execution strategy, never a semantics
/// change. The parallel path fans the per-chunk dispatch across a
/// ThreadPool, one task per physical query over shared read-only columns,
/// with no locks on the hot path.

namespace gems {

/// Registers standing queries, then ingests the stream once for all of
/// them. Not thread-safe for concurrent calls; the parallel path borrows a
/// pool internally.
class MultiQueryEngine {
 public:
  /// Handle for one registered query (dense, starting at 0).
  using QueryId = size_t;
  /// Handle for one registered filter predicate (dense, starting at 0).
  using FilterId = size_t;

  /// All queries ingest under this seed (the hash-once contract needs one
  /// seed across every sketch fed from the shared hash column).
  explicit MultiQueryEngine(uint64_t seed);

  MultiQueryEngine(const MultiQueryEngine&) = delete;
  MultiQueryEngine& operator=(const MultiQueryEngine&) = delete;

  /// Registers a filter predicate for use by any number of queries. Each
  /// distinct FilterId is evaluated once per event regardless of how many
  /// queries reference it.
  FilterId RegisterFilter(std::function<bool(const StreamEvent&)> predicate);

  /// Registers a standing query: `options` plus the conjunction of the
  /// given registered filters (order and duplicates are irrelevant — the
  /// set is canonicalized, and a query whose canonical (options, filter
  /// set) matches an existing one shares its physical state). Queries must
  /// be registered before the first ProcessBatch* call.
  QueryId AddQuery(const StreamQuery::Options& options,
                   std::span<const FilterId> filters = {});

  /// Ingests a batch for every registered query in one shared pass.
  /// Timestamps must be non-decreasing, as for StreamQuery. On error the
  /// current chunk is still dispatched to every physical query (so no
  /// query silently misses events another one saw), then the first error
  /// is returned.
  Status ProcessBatch(std::span<const StreamEvent> events);

  /// Multi-core ingest: shared columns (filters, hashes) are computed once
  /// on the calling thread, then each physical query's fan-out runs as one
  /// pool task over the read-only columns — disjoint state, no locks.
  /// Results are byte-identical to ProcessBatch (each physical query sees
  /// the same events in the same order either way).
  Status ProcessBatchParallel(std::span<const StreamEvent> events,
                              ThreadPool& pool);

  /// Drains windows closed so far for one query. Views over shared state
  /// each see every window exactly once.
  std::vector<WindowResult> Poll(QueryId id);

  /// Closes the current window of every physical query (StreamQuery::Flush
  /// semantics); results become visible to each member query's next Poll.
  void Flush();

  /// Serializes one query's dynamic state — byte-identical to
  /// SerializeState() of an equivalent independent StreamQuery at the same
  /// poll state (shared queries are checkpoint-transparent).
  std::vector<uint8_t> SerializeQueryState(QueryId id) const;

  /// Serializes the whole engine as one unit: every physical query's
  /// checkpoint (nested standard envelopes via the sketch registry) plus
  /// each view's result cache and cursor.
  std::vector<uint8_t> SerializeState() const;

  /// Restores a SerializeState image into an engine with the same seed and
  /// the same registration sequence (filters are code and must be
  /// re-registered; mismatched shape is kInvalidArgument, damage is
  /// kCorruption).
  Status RestoreState(std::span<const uint8_t> bytes);

  size_t num_queries() const { return views_.size(); }
  /// Physical (deduplicated) queries actually ingesting — the state-dedup
  /// win is num_queries() / num_physical_queries().
  size_t num_physical_queries() const { return groups_.size(); }
  size_t num_filters() const { return filters_.size(); }
  uint64_t seed() const { return seed_; }

 private:
  /// One physical query shared by every registered query with the same
  /// canonical (options, filter set).
  struct ExecGroup {
    ExecGroup(const StreamQuery::Options& options, uint64_t seed,
              std::vector<FilterId> filter_ids)
        : query(options, seed), filters(std::move(filter_ids)) {}

    StreamQuery query;
    std::vector<FilterId> filters;  // Sorted, unique.
    std::vector<QueryId> members;
    /// Windows drained from `query` but not yet consumed by every member
    /// view; cache_base is the absolute index of cache.front().
    std::deque<WindowResult> cache;
    uint64_t cache_base = 0;
    /// Per-chunk accept column (empty when the group has no filters).
    std::vector<uint8_t> accept;
  };

  /// One registered query's view onto its group's result stream.
  struct View {
    size_t group = 0;
    uint64_t cursor = 0;  // Absolute index of the next unseen window.
  };

  /// Evaluates used filters and the shared hash column for one chunk,
  /// AND-combines each group's accept column, and cuts the chunk into
  /// group runs at every physical query's window and slide boundaries.
  void PrepareChunk(std::span<const StreamEvent> chunk);
  /// Moves freshly closed windows from the group's query into its cache.
  void DrainGroup(ExecGroup& group);
  /// Drops cache entries every member view has consumed.
  void TrimCache(ExecGroup& group);

  uint64_t seed_;
  bool ingest_started_ = false;
  std::vector<std::function<bool(const StreamEvent&)>> filters_;
  std::vector<uint8_t> filter_used_;  // filter_used_[f]: any group wants f.
  std::vector<std::vector<uint8_t>> filter_cols_;  // Per-chunk, per filter.
  std::deque<ExecGroup> groups_;  // deque: stable refs across AddQuery.
  std::vector<View> views_;
  std::unordered_map<std::string, size_t> group_index_;  // canonical key.
  HashedBatch batch_;
  /// Distinct nonzero window sizes and slides over the physical queries.
  std::vector<uint64_t> periods_;
  GroupRuns runs_;  // Per-chunk, shared read-only by every query.
};

}  // namespace gems

#endif  // GEMS_ENGINE_MULTI_QUERY_H_
