#ifndef GEMS_CORE_SUMMARY_H_
#define GEMS_CORE_SUMMARY_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"
#include "core/view.h"

/// \file
/// Compile-time contracts for summaries, following the "Mergeable
/// Summaries" framing (Agarwal et al., PODS 2012) the paper highlights:
/// a summary supports single-item streaming updates (the streaming model)
/// and pairwise merge (the distributed model), and merging must not degrade
/// the error guarantee relative to streaming the concatenated input.
///
/// These concepts are used by the distributed aggregation substrate and the
/// property tests, which are written once against the concept and
/// instantiated for every conforming sketch.

namespace gems {

/// A summary that can absorb another summary of the same type.
/// `a.Merge(b)` must leave `a` summarizing the union of both inputs.
template <typename S>
concept MergeableSummary = requires(S s, const S& other) {
  { s.Merge(other) } -> std::same_as<Status>;
};

/// A summary over unweighted 64-bit items (sets / multisets of keys).
template <typename S>
concept ItemSummary = requires(S s, uint64_t item) {
  { s.Update(item) };
};

/// A summary over weighted items (frequency vectors).
template <typename S>
concept WeightedItemSummary = requires(S s, uint64_t item, int64_t weight) {
  { s.Update(item, weight) };
};

/// A summary over real values (quantile sketches).
template <typename S>
concept ValueSummary = requires(S s, double value) {
  { s.Update(value) };
};

/// A summary with a batched item ingest path. The contract (verified by the
/// wire tests) is strict: `UpdateBatch(items)` must leave the summary in a
/// state byte-identical (after Serialize) to feeding the same items through
/// `Update` one at a time, in order.
template <typename S>
concept BatchItemSummary = requires(S s, std::span<const uint64_t> items) {
  { s.UpdateBatch(items) };
};

/// A weighted summary with a batched ingest path applying one weight per
/// item (parallel spans).
template <typename S>
concept BatchWeightedItemSummary =
    requires(S s, std::span<const uint64_t> items,
             std::span<const int64_t> weights) {
      { s.UpdateBatch(items, weights) };
    };

/// A value (quantile) summary with a batched ingest path.
template <typename S>
concept BatchValueSummary = requires(S s, std::span<const double> values) {
  { s.UpdateBatch(values) };
};

/// A membership filter with a batched insert path (same byte-identical
/// contract as BatchItemSummary, against Insert).
template <typename S>
concept BatchInsertableSummary =
    requires(S s, std::span<const uint64_t> keys) {
      { s.InsertBatch(keys) };
    };

/// A summary with a no-argument point estimate (the unified Estimate()
/// surface of the cardinality / counting families). The concurrent
/// wrapper caches this value atomically at each publication so its
/// Estimate() is a single load.
template <typename S>
concept EstimableSummary = requires(const S& s) {
  { s.Estimate() } -> std::convertible_to<double>;
};

/// A summary with the unified no-argument interval estimate
/// (`EstimateWithBounds(confidence)` of the cardinality / counting
/// families). Used by the concurrent wrapper and the type-erased query
/// surface the gemsd server serves from.
///
/// The EstimableSummary conjunct is load-bearing, not redundant: a
/// per-item `EstimateWithBounds(uint64_t item, double confidence = ...)`
/// is also callable with a single double (the confidence converts to an
/// item id), so the call expression alone would classify every frequency
/// sketch as whole-sketch estimable and silently answer whole-sketch
/// queries with the frequency of item 0. Requiring the no-argument
/// `Estimate()` too pins this concept to families that genuinely have a
/// whole-sketch figure.
template <typename S>
concept BoundedPointEstimableSummary =
    EstimableSummary<S> &&
    requires(const S& s, double confidence) {
      { s.EstimateWithBounds(confidence) } -> std::same_as<gems::Estimate>;
    };

/// A summary with a per-item point estimate (the frequency families'
/// `Estimate(item)` surface).
template <typename S>
concept ItemEstimableSummary = requires(const S& s, uint64_t item) {
  { s.Estimate(item) } -> std::convertible_to<double>;
};

/// A summary with a per-item interval estimate
/// (`EstimateWithBounds(item, confidence)`).
template <typename S>
concept ItemBoundedEstimableSummary =
    requires(const S& s, uint64_t item, double confidence) {
      { s.EstimateWithBounds(item, confidence) } -> std::same_as<gems::Estimate>;
    };

/// The contract the engine (and the future gemsd server) expects of a
/// concurrent, queryable-under-ingest summary wrapper: thread-safe item
/// ingest, a way to force the calling thread's residual state visible
/// (FlushLocal), wait-free point estimates, a monotone publication epoch
/// usable as a staleness probe, and a consistent snapshot. Satisfied by
/// ConcurrentSummary<S> whenever S itself is estimable.
template <typename C>
concept ConcurrentEstimableSummary =
    requires(C c, const C& cc, uint64_t item) {
      { c.Update(item) };
      { cc.FlushLocal() };
      { cc.Estimate() } -> std::convertible_to<double>;
      { cc.epoch() } -> std::convertible_to<uint64_t>;
      { cc.Snapshot() };
    };

/// A summary that models time as a first-class dimension: its state is a
/// function of a window or decay clock that can advance without data
/// (rotating/expiring panes, decaying counts). Advancing with a timestamp
/// earlier than the newest one seen must clamp, never abort — servers see
/// unsorted input.
template <typename S>
concept TimedSummary = requires(S s, const S& cs, uint64_t timestamp) {
  { s.Advance(timestamp) };
  { cs.last_timestamp() } -> std::convertible_to<uint64_t>;
};

/// A timed summary over 64-bit items with an explicit per-update timestamp.
template <typename S>
concept TimedItemSummary =
    TimedSummary<S> && requires(S s, uint64_t timestamp, uint64_t item) {
      { s.UpdateAt(timestamp, item) };
    };

/// A timed summary with a batched timestamped ingest path: `timestamps`
/// parallels `items`. The contract mirrors BatchItemSummary's: state must
/// be byte-identical (after Serialize) to calling UpdateAt per item, in
/// order.
template <typename S>
concept BatchTimedItemSummary =
    TimedSummary<S> &&
    requires(S s, std::span<const uint64_t> timestamps,
             std::span<const uint64_t> items) {
      { s.UpdateBatchTimed(timestamps, items) };
    };

/// A summary that serializes to bytes and back: a family deriving from
/// WireCodec (core/wire.h), which supplies Serialize(), SerializeTo(sink)
/// and Deserialize(bytes) from the family's kTypeId and payload codec.
/// Deserialize takes a borrowed span, so callers holding mmap'd or
/// ring-buffer bytes never copy into a vector first, and SerializeTo
/// appends exactly Serialize()'s bytes into a caller-owned buffer (an
/// arena, a checkpoint body) with no intermediate allocation.
template <typename S>
concept SerializableSummary = std::derived_from<S, WireCodec<S>>;

/// Merges a wrapped serialized peer into `into`: the one view-merge entry
/// point. A family with a zero-copy member `MergeFromView(const View<S>&)`
/// (private, with this function as its friend) merges straight out of the
/// wrapped buffer; any other mergeable family materializes the peer once
/// (re-verifying the checksum, as Deserialize does) and merges it. The
/// contract (pinned by tests/view_test.cc and fuzz/fuzz_wire_view.cc) is
/// strict either way: the status code equals deserialize-then-merge's, on
/// success `into.Serialize()` is byte-identical to
/// `into.Merge(*view.Materialize())`, and on failure `into` is unchanged.
template <typename S>
  requires MergeableSummary<S>
Status MergeFromView(S& into, const View<S>& view) {
  if constexpr (requires { into.MergeFromView(view); }) {
    return into.MergeFromView(view);
  } else {
    Result<S> peer = view.Materialize();
    if (!peer.ok()) return peer.status();
    return into.Merge(peer.value());
  }
}

}  // namespace gems

#endif  // GEMS_CORE_SUMMARY_H_
