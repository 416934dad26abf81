#ifndef GEMS_DISTRIBUTED_AGGREGATION_H_
#define GEMS_DISTRIBUTED_AGGREGATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/io.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"
#include "distributed/thread_pool.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"

/// \file
/// Simulated distributed aggregation: the sensor-network / mergeable-
/// summaries scenario from the paper (q-digest's original motivation, and
/// the PODS 2012 "Mergeable Summaries" formalization). A fleet of nodes
/// each summarizes its local shard; summaries are combined up a fanout-f
/// merge tree. Works with any MergeableSummary; when the summary is also
/// Serializable, the driver accounts the bytes each tree level would send
/// over the network.

namespace gems {

/// Statistics from one tree aggregation.
struct AggregationStats {
  int tree_depth = 0;
  size_t num_merges = 0;
  /// Total wire-format bytes crossing links — full envelopes (header +
  /// payload), exactly what a network transport would carry. Only counted
  /// when summaries are serializable; otherwise 0.
  size_t communication_bytes = 0;
  /// Envelope messages sent (one per serialized summary shipped).
  size_t num_messages = 0;
  /// The share of communication_bytes spent on envelope headers
  /// (num_messages * kWireHeaderSize) rather than sketch payloads.
  size_t envelope_overhead_bytes = 0;
};

/// Routes item `i` of a stream to one of the shards described by a hoisted
/// `InvariantMod` (by hash, the way a load balancer would). Callers routing
/// a whole stream construct the InvariantMod once outside the loop, like
/// every other probe path built on hash/hashed_batch.h, so the per-item
/// reduction is a multiply (or a mask) instead of a hardware divide.
inline size_t ShardOf(uint64_t item, const InvariantMod& num_nodes,
                      uint64_t seed = 17) {
  return static_cast<size_t>(num_nodes(Hash64(item, seed)));
}

/// One-shot convenience overload; prefer the InvariantMod form in loops.
inline size_t ShardOf(uint64_t item, size_t num_nodes, uint64_t seed = 17) {
  GEMS_CHECK(num_nodes >= 1);
  return ShardOf(item, InvariantMod(num_nodes), seed);
}

/// Merges `leaves` up a fanout-`fanout` tree; returns the root summary.
/// The leaves vector is consumed. Stats (depth, merges, bytes) go to
/// `stats` if non-null.
template <typename S>
  requires MergeableSummary<S>
Result<S> AggregateTree(std::vector<S> leaves, int fanout,
                        AggregationStats* stats) {
  GEMS_CHECK(fanout >= 2);
  if (leaves.empty()) {
    return Status::InvalidArgument("no leaves to aggregate");
  }
  AggregationStats local;
  std::vector<S> level = std::move(leaves);
  while (level.size() > 1) {
    ++local.tree_depth;
    std::vector<S> next;
    next.reserve((level.size() + fanout - 1) / fanout);
    for (size_t i = 0; i < level.size(); i += fanout) {
      S combined = std::move(level[i]);
      for (size_t j = i + 1; j < std::min(level.size(), i + fanout); ++j) {
        if constexpr (SerializableSummary<S>) {
          // Serialize() emits the full wire envelope, so this counts what
          // the link would actually carry, checksum and all. Only paid when
          // the caller asked for stats — serializing every absorbed summary
          // would otherwise dominate the merge itself.
          if (stats != nullptr) {
            local.communication_bytes += level[j].Serialize().size();
            ++local.num_messages;
            local.envelope_overhead_bytes += kWireHeaderSize;
          }
        }
        Status s = combined.Merge(level[j]);
        if (!s.ok()) return s;
        ++local.num_merges;
      }
      next.push_back(std::move(combined));
    }
    level = std::move(next);
  }
  if (stats != nullptr) *stats = local;
  return std::move(level.front());
}

/// Convenience: aggregate with default fanout 2 and no stats.
template <typename S>
  requires MergeableSummary<S>
Result<S> AggregateTree(std::vector<S> leaves) {
  return AggregateTree(std::move(leaves), 2, nullptr);
}

/// Merges serialized leaf envelopes up a fanout-`fanout` tree: each
/// leaf-level group materializes only its first envelope (the accumulator)
/// and absorbs the rest via MergeFromView, straight out of the caller's
/// buffers for the families with a zero-copy view merge and through one
/// materialized peer for the rest. Upper levels run the ordinary
/// AggregateTree over the group accumulators, so the root is byte-identical
/// (Serialize()) to deserializing every envelope and calling AggregateTree
/// — that equivalence is pinned by tests/view_test.cc.
///
/// This is the fan-in shape of the mergeable-summaries scenario as it
/// actually occurs in production: the combiner holds N serialized blobs
/// (from workers, from a shuffle, from object storage) and wants one root.
/// Stats count the real envelope byte sizes at the leaf level — no
/// re-serialization needed to account communication.
///
/// The envelopes are borrowed and must stay alive and unmodified for the
/// duration of the call.
template <typename S>
  requires MergeableSummary<S> && SerializableSummary<S>
Result<S> AggregateTreeFromEnvelopes(std::span<const ByteSpan> envelopes,
                                     int fanout,
                                     AggregationStats* stats = nullptr) {
  GEMS_CHECK(fanout >= 2);
  if (envelopes.empty()) {
    return Status::InvalidArgument("no leaves to aggregate");
  }
  AggregationStats local;
  const size_t fan = static_cast<size_t>(fanout);
  std::vector<S> level;
  level.reserve((envelopes.size() + fan - 1) / fan);
  if (envelopes.size() > 1) ++local.tree_depth;
  for (size_t i = 0; i < envelopes.size(); i += fan) {
    Result<View<S>> first = View<S>::Wrap(envelopes[i]);
    if (!first.ok()) return first.status();
    Result<S> combined = first.value().Materialize();
    if (!combined.ok()) return combined.status();
    const size_t end = std::min(envelopes.size(), i + fan);
    for (size_t j = i + 1; j < end; ++j) {
      Result<View<S>> view = View<S>::Wrap(envelopes[j]);
      if (!view.ok()) return view.status();
      if (stats != nullptr) {
        local.communication_bytes += envelopes[j].size();
        ++local.num_messages;
        local.envelope_overhead_bytes += kWireHeaderSize;
      }
      Status s = MergeFromView(combined.value(), view.value());
      if (!s.ok()) return s;
      ++local.num_merges;
    }
    level.push_back(std::move(combined).value());
  }
  AggregationStats upper;
  Result<S> root =
      AggregateTree(std::move(level), fanout, stats ? &upper : nullptr);
  if (!root.ok()) return root.status();
  if (stats != nullptr) {
    local.tree_depth += upper.tree_depth;
    local.num_merges += upper.num_merges;
    local.communication_bytes += upper.communication_bytes;
    local.num_messages += upper.num_messages;
    local.envelope_overhead_bytes += upper.envelope_overhead_bytes;
    *stats = local;
  }
  return root;
}

/// Parallel merge tree: same pairing and same in-group merge order as
/// AggregateTree, but the groups of each level — which touch disjoint
/// summaries — are merged concurrently on `pool`. Because every individual
/// Merge call is identical to the sequential tree's, the root is
/// byte-identical (Serialize()) to sequential AggregateTree over the same
/// leaves. Stats report depth and merge count only; communication-byte
/// accounting stays on the sequential tree, which remains the reference
/// path.
template <typename S>
  requires MergeableSummary<S>
Result<S> ParallelAggregateTree(std::vector<S> leaves, int fanout,
                                ThreadPool* pool,
                                AggregationStats* stats = nullptr) {
  GEMS_CHECK(fanout >= 2);
  GEMS_CHECK(pool != nullptr);
  if (leaves.empty()) {
    return Status::InvalidArgument("no leaves to aggregate");
  }
  AggregationStats local;
  std::vector<S> level = std::move(leaves);
  const size_t fan = static_cast<size_t>(fanout);
  while (level.size() > 1) {
    ++local.tree_depth;
    const size_t num_groups = (level.size() + fan - 1) / fan;
    local.num_merges += level.size() - num_groups;
    // Each task owns group g: slots are disjoint, so no synchronization
    // beyond the RunAll barrier is needed.
    std::vector<std::optional<S>> next(num_groups);
    std::vector<Status> statuses(num_groups);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      tasks.push_back([&level, &next, &statuses, fan, g] {
        const size_t begin = g * fan;
        const size_t end = std::min(level.size(), begin + fan);
        S combined = std::move(level[begin]);
        for (size_t j = begin + 1; j < end; ++j) {
          Status s = combined.Merge(level[j]);
          if (!s.ok()) {
            statuses[g] = std::move(s);
            return;
          }
        }
        next[g].emplace(std::move(combined));
      });
    }
    pool->RunAll(std::move(tasks));
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    std::vector<S> merged;
    merged.reserve(num_groups);
    for (std::optional<S>& slot : next) merged.push_back(std::move(*slot));
    level = std::move(merged);
  }
  if (stats != nullptr) *stats = local;
  return std::move(level.front());
}

/// Parallel form of AggregateTreeFromEnvelopes: the leaf-level groups —
/// which wrap and absorb disjoint envelopes — run concurrently on `pool`,
/// then the group accumulators are merged with ParallelAggregateTree.
/// Every individual MergeFromView matches the sequential envelope tree's,
/// so the root is byte-identical to both the sequential envelope tree and
/// the deserialize-everything AggregateTree. Stats report depth and merge
/// count only, like ParallelAggregateTree.
template <typename S>
  requires MergeableSummary<S> && SerializableSummary<S>
Result<S> ParallelAggregateTreeFromEnvelopes(
    std::span<const ByteSpan> envelopes, int fanout, ThreadPool* pool,
    AggregationStats* stats = nullptr) {
  GEMS_CHECK(fanout >= 2);
  GEMS_CHECK(pool != nullptr);
  if (envelopes.empty()) {
    return Status::InvalidArgument("no leaves to aggregate");
  }
  AggregationStats local;
  const size_t fan = static_cast<size_t>(fanout);
  const size_t num_groups = (envelopes.size() + fan - 1) / fan;
  if (envelopes.size() > 1) ++local.tree_depth;
  local.num_merges += envelopes.size() - num_groups;
  std::vector<std::optional<S>> slots(num_groups);
  std::vector<Status> statuses(num_groups);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    tasks.push_back([&envelopes, &slots, &statuses, fan, g] {
      const size_t begin = g * fan;
      const size_t end = std::min(envelopes.size(), begin + fan);
      Result<View<S>> first = View<S>::Wrap(envelopes[begin]);
      if (!first.ok()) {
        statuses[g] = first.status();
        return;
      }
      Result<S> combined = first.value().Materialize();
      if (!combined.ok()) {
        statuses[g] = combined.status();
        return;
      }
      for (size_t j = begin + 1; j < end; ++j) {
        Result<View<S>> view = View<S>::Wrap(envelopes[j]);
        if (!view.ok()) {
          statuses[g] = view.status();
          return;
        }
        Status s = MergeFromView(combined.value(), view.value());
        if (!s.ok()) {
          statuses[g] = std::move(s);
          return;
        }
      }
      slots[g].emplace(std::move(combined).value());
    });
  }
  pool->RunAll(std::move(tasks));
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  std::vector<S> level;
  level.reserve(num_groups);
  for (std::optional<S>& slot : slots) level.push_back(std::move(*slot));
  AggregationStats upper;
  Result<S> root = ParallelAggregateTree(std::move(level), fanout, pool,
                                         stats ? &upper : nullptr);
  if (!root.ok()) return root.status();
  if (stats != nullptr) {
    local.tree_depth += upper.tree_depth;
    local.num_merges += upper.num_merges;
    *stats = local;
  }
  return root;
}

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_AGGREGATION_H_
