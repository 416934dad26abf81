#include "engine/stream_query.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "core/registry.h"
#include "distributed/aggregation.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"
#include "hash/murmur3.h"
#include "hash/xxhash.h"

namespace gems {

namespace {

/// Magic + version for the checkpoint container. The sketches inside are
/// standard wire envelopes; this header frames the engine-level state
/// around them. The whole container carries a trailing XXH64 checksum so
/// damage to engine-level fields (sums, window bounds) is caught just as
/// reliably as damage inside a sketch envelope.
constexpr uint32_t kCheckpointMagic = 0x514D4547;  // "GEMQ" little-endian.
/// Version 2 added the sliding-window fields (the `slide` option in the
/// fingerprint and the kHasSliding presence bit); version 3 added sliding
/// TOP-K and QUANTILES pane rings. Version-1 and -2 images are still
/// restorable into queries without the newer state.
constexpr uint8_t kCheckpointVersion = 3;
constexpr uint64_t kCheckpointChecksumSeed = 0x474D5351;  // "QSMG".

/// Presence bits for the per-group optional sketches.
constexpr uint8_t kHasDistinct = 1;
constexpr uint8_t kHasTop = 2;
constexpr uint8_t kHasQuantiles = 4;
constexpr uint8_t kHasSliding = 8;
constexpr uint8_t kHasSlidingTop = 16;
constexpr uint8_t kHasSlidingQuantiles = 32;

/// Restores one sketch envelope through the registry, downcasting to the
/// concrete type the engine expects for this aggregate. The envelope is
/// parsed in place (a borrowed view of the checkpoint body), so restore
/// never copies sketch bytes into an intermediate buffer.
template <typename S>
Status RestoreSketch(ByteReader* reader, std::optional<S>* out) {
  std::span<const uint8_t> envelope;
  if (Status s = reader->GetBytesView(&envelope); !s.ok()) return s;
  Result<AnySketch> any = SketchRegistry::Global().Deserialize(envelope);
  if (!any.ok()) return any.status();
  const S* sketch = any.value().template As<S>();
  if (sketch == nullptr) {
    return Status::Corruption(
        std::string("checkpoint: unexpected sketch type ") +
        any.value().type_name());
  }
  out->emplace(*sketch);
  return Status::Ok();
}

/// Serializes a pane ring as engine-level state: the ring clock, then each
/// live pane as (pane id, standard wire envelope) — so a registry-aware
/// reader can still inspect every sketch inside a checkpoint. The sliding
/// COUNT DISTINCT state predates this helper and stays a single
/// SlidingHyperLogLog envelope for v2 compatibility.
template <typename S>
void SerializeRing(ByteWriter& w, const PaneRing<S>& ring) {
  w.PutU64(ring.last_timestamp());
  w.PutVarint(ring.NumLivePanes());
  ring.ForEachPane([&w](uint64_t id, const S& summary) {
    w.PutU64(id);
    const std::vector<uint8_t> bytes = summary.Serialize();
    w.PutBytes(bytes.data(), bytes.size());
  });
}

/// Whether a restored pane was built like the ring's prototype.
bool SameParameters(const SpaceSaving& pane, const SpaceSaving& prototype) {
  return pane.capacity() == prototype.capacity();
}
bool SameParameters(const KllSketch& pane, const KllSketch& prototype) {
  return pane.k() == prototype.k();
}

/// Restores a pane ring serialized by SerializeRing into a ring built from
/// `prototype` with the query's pane geometry.
template <typename S>
Status RestoreRing(ByteReader* reader, const S& prototype, uint64_t pane_width,
                   size_t num_panes, std::optional<PaneRing<S>>* out) {
  uint64_t last_timestamp, count;
  if (Status s = reader->GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = reader->GetVarint(&count); !s.ok()) return s;
  PaneRing<S> ring(prototype, pane_width, num_panes);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id;
    std::span<const uint8_t> envelope;
    if (Status s = reader->GetU64(&id); !s.ok()) return s;
    if (Status s = reader->GetBytesView(&envelope); !s.ok()) return s;
    Result<S> pane = S::Deserialize(envelope);
    if (!pane.ok()) return pane.status();
    // The ring merges its panes with GEMS_CHECK, so a pane that cannot
    // merge with the prototype must stop here.
    if (!SameParameters(pane.value(), prototype)) {
      return Status::Corruption(
          "stream query checkpoint: pane parameters do not match the query");
    }
    if (Status s = ring.AppendPane(id, std::move(pane).value()); !s.ok()) {
      return s;
    }
  }
  // Restore the ring clock; AppendPane left it at zero.
  if (ring.started()) ring.Advance(last_timestamp);
  out->emplace(std::move(ring));
  return Status::Ok();
}

}  // namespace

namespace engine_detail {

OptionKnobs RelevantKnobs(const StreamQuery::Options& options) {
  OptionKnobs knobs;
  switch (options.aggregate) {
    case AggregateKind::kCountDistinct:
      knobs.hll_precision = static_cast<uint8_t>(options.hll_precision);
      break;
    case AggregateKind::kTopK:
      knobs.top_k_capacity = options.top_k_capacity;
      knobs.top_k = options.top_k;
      break;
    case AggregateKind::kQuantiles:
      knobs.kll_k = options.kll_k;
      break;
    case AggregateKind::kSum:
      break;
  }
  return knobs;
}

void SerializeWindows(ByteWriter& w, const std::deque<WindowResult>& windows) {
  w.PutVarint(windows.size());
  for (const WindowResult& window : windows) {
    w.PutU64(window.window_start);
    w.PutU64(window.window_end);
    w.PutVarint(window.groups.size());
    for (const GroupAggregate& aggregate : window.groups) {
      w.PutU64(aggregate.group);
      w.PutDouble(aggregate.scalar);
      w.PutVarint(aggregate.top_items.size());
      for (const auto& [item, count] : aggregate.top_items) {
        w.PutU64(item);
        w.PutI64(count);
      }
      w.PutVarint(aggregate.quantiles.size());
      for (double q : aggregate.quantiles) w.PutDouble(q);
    }
  }
}

Status DeserializeWindows(ByteReader& r, std::deque<WindowResult>* out) {
  uint64_t num_windows;
  if (Status s = r.GetVarint(&num_windows); !s.ok()) return s;
  std::deque<WindowResult> windows;
  for (uint64_t i = 0; i < num_windows; ++i) {
    WindowResult window;
    uint64_t num_window_groups;
    if (Status s = r.GetU64(&window.window_start); !s.ok()) return s;
    if (Status s = r.GetU64(&window.window_end); !s.ok()) return s;
    if (Status s = r.GetVarint(&num_window_groups); !s.ok()) return s;
    for (uint64_t g = 0; g < num_window_groups; ++g) {
      GroupAggregate aggregate_row;
      uint64_t num_top, num_quantiles;
      if (Status s = r.GetU64(&aggregate_row.group); !s.ok()) return s;
      if (Status s = r.GetDouble(&aggregate_row.scalar); !s.ok()) return s;
      if (Status s = r.GetVarint(&num_top); !s.ok()) return s;
      for (uint64_t t = 0; t < num_top; ++t) {
        uint64_t item;
        int64_t count;
        if (Status s = r.GetU64(&item); !s.ok()) return s;
        if (Status s = r.GetI64(&count); !s.ok()) return s;
        aggregate_row.top_items.emplace_back(item, count);
      }
      if (Status s = r.GetVarint(&num_quantiles); !s.ok()) return s;
      for (uint64_t q = 0; q < num_quantiles; ++q) {
        double value;
        if (Status s = r.GetDouble(&value); !s.ok()) return s;
        aggregate_row.quantiles.push_back(value);
      }
      window.groups.push_back(std::move(aggregate_row));
    }
    windows.push_back(std::move(window));
  }
  *out = std::move(windows);
  return Status::Ok();
}

}  // namespace engine_detail

void GroupRuns::Build(std::span<const StreamEvent> events,
                      std::span<const uint64_t> periods) {
  GEMS_CHECK(events.size() < UINT32_MAX);
  source_ = events;
  periods_.assign(periods.begin(), periods.end());
  segments_.clear();
  runs_.clear();
  size_t n = events.empty() ? 0 : 1;
  while (n < events.size() && events[n].timestamp >= events[n - 1].timestamp) {
    ++n;
  }
  ordered_prefix_ = n;
  order_.resize(n);
  // Dense ids, so the partition below is a counting sort. The lookup is an
  // open-addressing table at load <= 1/2, reset per chunk.
  const size_t mask = std::bit_ceil(2 * n + 1) - 1;
  dense_table_.assign(mask + 1, 0);
  dense_group_.clear();
  event_dense_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t group = events[i].group;
    size_t cell = murmur3_detail::FMix64(group) & mask;
    while (dense_table_[cell] != 0 &&
           dense_group_[dense_table_[cell] - 1] != group) {
      cell = (cell + 1) & mask;
    }
    if (dense_table_[cell] == 0) {
      dense_group_.push_back(group);
      dense_table_[cell] = static_cast<uint32_t>(dense_group_.size());
    }
    event_dense_[i] = dense_table_[cell] - 1;
  }
  count_.assign(dense_group_.size(), 0);
  for (size_t begin = 0; begin < n;) {
    // The segment ends before the first timestamp at or past the next
    // multiple of any period (when one fits in 64 bits).
    const uint64_t t = events[begin].timestamp;
    uint64_t next = UINT64_MAX;
    bool bounded = false;
    for (uint64_t p : periods) {
      if (p == 0 || t / p >= UINT64_MAX / p) continue;
      next = std::min(next, (t / p + 1) * p);
      bounded = true;
    }
    size_t end = begin + 1;
    while (end < n && (!bounded || events[end].timestamp < next)) ++end;
    // Stable counting sort of [begin, end) by group; runs in order of each
    // group's first event.
    for (size_t i = begin; i < end; ++i) {
      if (count_[event_dense_[i]]++ == 0) touched_.push_back(event_dense_[i]);
    }
    const auto first_run = static_cast<uint32_t>(runs_.size());
    auto pos = static_cast<uint32_t>(begin);
    for (uint32_t d : touched_) {
      const uint32_t count = count_[d];
      runs_.push_back(Run{dense_group_[d], pos, pos + count});
      count_[d] = pos;  // Now the group's write cursor.
      pos += count;
    }
    for (size_t i = begin; i < end; ++i) {
      order_[count_[event_dense_[i]]++] = static_cast<uint32_t>(i);
    }
    for (uint32_t d : touched_) count_[d] = 0;
    touched_.clear();
    segments_.push_back(Segment{static_cast<uint32_t>(begin),
                                static_cast<uint32_t>(end), first_run,
                                static_cast<uint32_t>(runs_.size())});
    begin = end;
  }
}

StreamQuery::StreamQuery(const Options& options, uint64_t seed)
    : options_(options), seed_(seed) {
  GEMS_CHECK(options.hll_precision >= 4 && options.hll_precision <= 18);
  GEMS_CHECK(options.top_k_capacity >= options.top_k);
}

StreamQuery& StreamQuery::AddFilter(
    std::function<bool(const StreamEvent&)> predicate) {
  filters_.push_back(std::move(predicate));
  return *this;
}

StreamQuery& StreamQuery::PublishDistinctTo(
    ConcurrentSummary<HyperLogLog>* live) {
  GEMS_CHECK(options_.aggregate == AggregateKind::kCountDistinct);
  GEMS_CHECK(live != nullptr);
  live_distinct_ = live;
  return *this;
}

StreamQuery::GroupState& StreamQuery::StateFor(uint64_t group) {
  GroupState& state = groups_[group];
  const size_t num_panes =
      options_.slide > 0 ? options_.window_size / options_.slide : 0;
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      if (options_.slide > 0) {
        if (!state.sliding.has_value()) {
          state.sliding.emplace(options_.hll_precision, options_.slide,
                                num_panes, seed_);
        }
      } else if (!state.distinct.has_value()) {
        state.distinct.emplace(options_.hll_precision, seed_);
      }
      break;
    case AggregateKind::kTopK:
      if (options_.slide > 0) {
        if (!state.sliding_top.has_value()) {
          state.sliding_top.emplace(SpaceSaving(options_.top_k_capacity),
                                    options_.slide, num_panes);
        }
      } else if (!state.top.has_value()) {
        state.top.emplace(options_.top_k_capacity);
      }
      break;
    case AggregateKind::kQuantiles:
      if (options_.slide > 0) {
        if (!state.sliding_quantiles.has_value()) {
          state.sliding_quantiles.emplace(
              KllSketch(options_.kll_k, Hash64(group, seed_)), options_.slide,
              num_panes);
        }
      } else if (!state.quantiles.has_value()) {
        state.quantiles.emplace(options_.kll_k, Hash64(group, seed_));
      }
      break;
    case AggregateKind::kSum:
      break;
  }
  return state;
}

Status StreamQuery::AdvanceWindow(uint64_t first, uint64_t last) {
  if (window_initialized_ && first < last_timestamp_) {
    return Status::FailedPrecondition("timestamps must be non-decreasing");
  }
  if (options_.slide > 0) {
    // Sliding mode: current_window_start_ tracks the newest slide
    // boundary; a crossing emits the trailing window, and groups persist.
    if (options_.window_size == 0 ||
        options_.window_size % options_.slide != 0) {
      return Status::InvalidArgument(
          "sliding queries need window_size to be a nonzero multiple of "
          "slide");
    }
    if (options_.aggregate == AggregateKind::kSum) {
      return Status::Unimplemented(
          "sliding windows need a sketch aggregate (COUNT DISTINCT, TOP-K, "
          "or QUANTILES)");
    }
    const uint64_t boundary = first / options_.slide * options_.slide;
    if (!window_initialized_) {
      window_initialized_ = true;
      current_window_start_ = boundary;
    } else if (boundary > current_window_start_) {
      EmitSlidingWindow(boundary);
    }
    last_timestamp_ = last;
    return Status::Ok();
  }
  if (!window_initialized_) {
    window_initialized_ = true;
    current_window_start_ =
        options_.window_size == 0
            ? first
            : first / options_.window_size * options_.window_size;
  }
  last_timestamp_ = last;

  if (options_.window_size > 0) {
    const uint64_t window_start =
        first / options_.window_size * options_.window_size;
    if (window_start > current_window_start_) CloseWindow(window_start);
  }
  return Status::Ok();
}

bool StreamQuery::PassesFilters(const StreamEvent& event) const {
  for (const auto& predicate : filters_) {
    if (!predicate(event)) return false;
  }
  return true;
}

void StreamQuery::ApplyEvent(const StreamEvent& event) {
  GroupState& state = StateFor(event.group);
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      if (options_.slide > 0) {
        state.sliding->UpdateAt(event.timestamp, event.item);
      } else {
        state.distinct->Update(event.item);
      }
      if (live_distinct_ != nullptr) live_distinct_->Update(event.item);
      break;
    case AggregateKind::kTopK:
      if (options_.slide > 0) {
        state.sliding_top->Update(event.timestamp, event.item,
                                  std::max<int64_t>(1, event.value));
      } else {
        state.top->Update(event.item, std::max<int64_t>(1, event.value));
      }
      break;
    case AggregateKind::kQuantiles:
      if (options_.slide > 0) {
        state.sliding_quantiles->Update(event.timestamp,
                                        static_cast<double>(event.value));
      } else {
        state.quantiles->Update(static_cast<double>(event.value));
      }
      break;
    case AggregateKind::kSum:
      state.sum += event.value;
      break;
  }
}

Status StreamQuery::Process(const StreamEvent& event) {
  if (Status s = AdvanceWindow(event.timestamp, event.timestamp); !s.ok()) {
    return s;
  }
  if (!PassesFilters(event)) return Status::Ok();
  ApplyEvent(event);
  return Status::Ok();
}

Status StreamQuery::ProcessBatch(std::span<const StreamEvent> events) {
  const uint64_t period =
      options_.slide > 0 ? options_.slide : options_.window_size;
  GroupRuns runs;
  HashedBatch batch;
  const bool distinct = options_.aggregate == AggregateKind::kCountDistinct;
  constexpr size_t kChunk = 32768;
  while (!events.empty()) {
    const std::span<const StreamEvent> chunk =
        events.first(std::min(events.size(), kChunk));
    runs.Build(chunk, std::span<const uint64_t>(&period, 1));
    // Hash-once: every group's HLL is built with the query seed, so one
    // Hash64 per event serves whichever group (and pane) it lands in.
    if (distinct) {
      batch.ResetProjected(
          chunk, [](const StreamEvent& event) { return event.item; }, seed_);
    }
    if (Status s = ProcessBatchPrehashed(
            chunk, runs,
            distinct ? batch.hashes() : std::span<const uint64_t>(), {});
        !s.ok()) {
      return s;
    }
    events = events.subspan(chunk.size());
  }
  return Status::Ok();
}

Status StreamQuery::ProcessBatchPrehashed(std::span<const StreamEvent> events,
                                          const GroupRuns& runs,
                                          std::span<const uint64_t> hashes,
                                          std::span<const uint8_t> accept) {
  GEMS_CHECK(hashes.empty() || hashes.size() == events.size());
  GEMS_CHECK(accept.empty() || accept.size() == events.size());
  GEMS_CHECK(runs.BuiltFrom(events));
  GEMS_CHECK(runs.CutsAt(options_.slide > 0 ? options_.slide
                                            : options_.window_size));
  const std::span<const uint32_t> order = runs.order();
  const auto accepts = [&](uint32_t i) {
    return (accept.empty() || accept[i] != 0) && PassesFilters(events[i]);
  };
  for (const GroupRuns::Segment& segment : runs.segments()) {
    // No boundary of this query lies inside the segment, so its first
    // event makes every window close or emission the segment causes.
    if (Status s = AdvanceWindow(events[segment.begin].timestamp,
                                 events[segment.end - 1].timestamp);
        !s.ok()) {
      return s;
    }
    for (uint32_t r = segment.first_run; r < segment.end_run; ++r) {
      const GroupRuns::Run& run = runs.runs()[r];
      // Trim rejected events off the run's tail; a run with nothing
      // accepted touches no state (it must not create its group).
      uint32_t end = run.end;
      while (end > run.begin && !accepts(order[end - 1])) --end;
      if (end == run.begin) continue;
      const uint64_t last_ts = events[order[end - 1]].timestamp;
      // Visits the run's accepted events in stream order; the last one is
      // known to be accepted.
      const auto for_each = [&](auto&& apply) {
        for (uint32_t k = run.begin; k + 1 < end; ++k) {
          if (accepts(order[k])) apply(order[k]);
        }
        apply(order[end - 1]);
      };
      GroupState& state = StateFor(run.group);
      switch (options_.aggregate) {
        case AggregateKind::kCountDistinct: {
          // A sliding run lies in one pane: open it once, at the run's
          // last accepted timestamp, as per-event UpdateAt leaves the ring.
          HyperLogLog& hll = options_.slide > 0
                                 ? state.sliding->SummaryAt(last_ts)
                                 : *state.distinct;
          for_each([&](uint32_t i) {
            if (hashes.empty()) {
              hll.Update(events[i].item);
            } else {
              hll.UpdateHash(hashes[i]);
            }
            // The live global buffers raw items (it re-hashes on its own
            // batched drain), so it takes the item, not the hash word.
            if (live_distinct_ != nullptr) {
              live_distinct_->Update(events[i].item);
            }
          });
          break;
        }
        case AggregateKind::kTopK: {
          SpaceSaving& top = options_.slide > 0
                                 ? state.sliding_top->SummaryAt(last_ts)
                                 : *state.top;
          for_each([&](uint32_t i) {
            top.Update(events[i].item, std::max<int64_t>(1, events[i].value));
          });
          break;
        }
        case AggregateKind::kQuantiles: {
          KllSketch& kll = options_.slide > 0
                               ? state.sliding_quantiles->SummaryAt(last_ts)
                               : *state.quantiles;
          for_each([&](uint32_t i) {
            kll.Update(static_cast<double>(events[i].value));
          });
          break;
        }
        case AggregateKind::kSum:
          for_each([&](uint32_t i) { state.sum += events[i].value; });
          break;
      }
    }
  }
  if (runs.ordered_prefix() < events.size()) {
    // The first out-of-order event: the runs stop before it, and
    // AdvanceWindow rejects it (its timestamp is below the previous
    // event's) with the status Process() would return, mutating nothing.
    const uint64_t late = events[runs.ordered_prefix()].timestamp;
    return AdvanceWindow(late, late);
  }
  return Status::Ok();
}

Status StreamQuery::ProcessBatchParallel(std::span<const StreamEvent> events,
                                         ThreadPool& pool) {
  const size_t num_workers = pool.num_threads();
  if (num_workers <= 1 || options_.slide > 0) return ProcessBatch(events);

  // One routed update: the owning worker applies item/value to the group's
  // state. Groups are partitioned across workers by hash, so two workers
  // never touch the same GroupState, and one group's updates stay in
  // stream order — state ends up byte-identical to the sequential path.
  // Workers re-find the group at apply time (one flat-table probe) because
  // routing keeps inserting groups, and an insert may rehash the table.
  struct Routed {
    uint64_t group;
    uint64_t item;
    int64_t value;
  };
  std::vector<std::vector<Routed>> buckets(num_workers);
  const InvariantMod worker_mod(num_workers);

  auto apply_bucket = [this](std::vector<Routed>& bucket) {
    switch (options_.aggregate) {
      case AggregateKind::kCountDistinct: {
        // Hash-once per worker: each worker hashes its own slice in the
        // hoisted loop, then feeds precomputed words to its groups' HLLs
        // (all built with the query seed).
        uint64_t items[256];
        uint64_t hashes[256];
        for (size_t off = 0; off < bucket.size(); off += std::size(items)) {
          const size_t n = std::min(bucket.size() - off, std::size(items));
          for (size_t i = 0; i < n; ++i) items[i] = bucket[off + i].item;
          HashBatch(std::span<const uint64_t>(items, n), seed_, hashes);
          for (size_t i = 0; i < n; ++i) {
            groups_.Find(bucket[off + i].group)->distinct->UpdateHash(
                hashes[i]);
          }
        }
        break;
      }
      case AggregateKind::kTopK:
        for (const Routed& r : bucket) {
          groups_.Find(r.group)->top->Update(r.item,
                                             std::max<int64_t>(1, r.value));
        }
        break;
      case AggregateKind::kQuantiles:
        for (const Routed& r : bucket) {
          groups_.Find(r.group)->quantiles->Update(
              static_cast<double>(r.value));
        }
        break;
      case AggregateKind::kSum:
        for (const Routed& r : bucket) groups_.Find(r.group)->sum += r.value;
        break;
    }
  };

  auto flush = [&] {
    std::vector<std::function<void()>> tasks;
    for (std::vector<Routed>& bucket : buckets) {
      if (bucket.empty()) continue;
      tasks.push_back([&apply_bucket, &bucket] { apply_bucket(bucket); });
    }
    pool.RunAll(std::move(tasks));
    for (std::vector<Routed>& bucket : buckets) bucket.clear();
  };

  for (const StreamEvent& event : events) {
    // Pending routed updates must land before their window closes under
    // them: CloseWindow snapshots and clears the group table out from
    // under the group ids the buckets hold.
    if (options_.window_size > 0 && window_initialized_ &&
        event.timestamp >= current_window_start_ + options_.window_size) {
      flush();
    }
    if (Status s = AdvanceWindow(event.timestamp, event.timestamp); !s.ok()) {
      flush();  // Events routed before the error still apply, as in Process.
      return s;
    }
    if (!PassesFilters(event)) continue;
    StateFor(event.group);  // Materialize the group's sketch for apply.
    buckets[ShardOf(event.group, worker_mod)].push_back(
        {event.group, event.item, event.value});
    // Mirrored on the routing (calling) thread, not the pool workers, so
    // the live global sees one writer slot per query regardless of pool
    // size; its own buffering keeps this off the routing hot path.
    if (live_distinct_ != nullptr) live_distinct_->Update(event.item);
  }
  flush();
  return Status::Ok();
}

GroupAggregate StreamQuery::Snapshot(uint64_t group,
                                     const GroupState& state) const {
  GroupAggregate aggregate;
  aggregate.group = group;
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      aggregate.scalar = state.distinct->Estimate();
      break;
    case AggregateKind::kTopK:
      for (const SpaceSaving::Entry& entry : state.top->TopK(options_.top_k)) {
        aggregate.top_items.emplace_back(entry.item, entry.count);
      }
      break;
    case AggregateKind::kQuantiles:
      if (state.quantiles->Count() == 0) {
        aggregate.quantiles.assign(options_.quantile_points.size(), 0.0);
      } else {
        aggregate.quantiles =
            state.quantiles->Quantiles(options_.quantile_points);
      }
      break;
    case AggregateKind::kSum:
      aggregate.scalar = static_cast<double>(state.sum);
      break;
  }
  return aggregate;
}

std::vector<std::pair<uint64_t, StreamQuery::GroupState*>>
StreamQuery::SortedGroups() const {
  std::vector<std::pair<uint64_t, GroupState*>> out;
  out.reserve(groups_.size());
  // The flat table iterates in hash order; every ordered consumer (window
  // snapshots, checkpoints) funnels through this sort, which is what keeps
  // results and SerializeState independent of group insertion order.
  const_cast<FlatMap64<GroupState>&>(groups_).ForEach(
      [&out](uint64_t group, GroupState& state) {
        out.emplace_back(group, &state);
      });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void StreamQuery::CloseWindow(uint64_t next_window_start) {
  WindowResult result;
  result.window_start = current_window_start_;
  result.window_end = options_.window_size == 0
                          ? last_timestamp_ + 1
                          : current_window_start_ + options_.window_size;
  for (const auto& [group, state] : SortedGroups()) {
    result.groups.push_back(Snapshot(group, *state));
  }
  closed_.push_back(std::move(result));
  groups_.Clear();
  current_window_start_ = next_window_start;
  // Window boundaries are the natural staleness bound for the live view:
  // fold this thread's buffered residual so a reader is at most one open
  // window behind the query.
  if (live_distinct_ != nullptr) live_distinct_->FlushLocal();
}

void StreamQuery::EmitSlidingWindow(uint64_t boundary) {
  WindowResult result;
  result.window_start = boundary >= options_.window_size
                            ? boundary - options_.window_size
                            : 0;
  result.window_end = boundary;
  for (const auto& [group, state] : SortedGroups()) {
    // Advancing to the last instant before the boundary expires panes
    // older than the window without opening the boundary's own pane; the
    // memoized WindowSummary() then re-merges only if this group mutated
    // since the last emission.
    GroupAggregate aggregate;
    aggregate.group = group;
    switch (options_.aggregate) {
      case AggregateKind::kCountDistinct:
        state->sliding->Advance(boundary - 1);
        aggregate.scalar = state->sliding->WindowSummary().Estimate();
        break;
      case AggregateKind::kTopK: {
        state->sliding_top->Advance(boundary - 1);
        const SpaceSaving& window = state->sliding_top->WindowSummary();
        for (const SpaceSaving::Entry& entry : window.TopK(options_.top_k)) {
          aggregate.top_items.emplace_back(entry.item, entry.count);
        }
        break;
      }
      case AggregateKind::kQuantiles: {
        state->sliding_quantiles->Advance(boundary - 1);
        const KllSketch& window = state->sliding_quantiles->WindowSummary();
        if (window.Count() == 0) {
          aggregate.quantiles.assign(options_.quantile_points.size(), 0.0);
        } else {
          aggregate.quantiles = window.Quantiles(options_.quantile_points);
        }
        break;
      }
      case AggregateKind::kSum:
        break;  // Unreachable: AdvanceWindow rejects sliding kSum.
    }
    result.groups.push_back(std::move(aggregate));
  }
  closed_.push_back(std::move(result));
  current_window_start_ = boundary;
  // Same staleness bound as tumbling closes for the live view.
  if (live_distinct_ != nullptr) live_distinct_->FlushLocal();
}

std::vector<WindowResult> StreamQuery::Poll() {
  std::vector<WindowResult> out(closed_.begin(), closed_.end());
  closed_.clear();
  return out;
}

std::vector<WindowResult> StreamQuery::Flush() {
  if (window_initialized_ && !groups_.empty()) {
    if (options_.slide > 0) {
      // Emit the window ending at the next slide boundary (it covers
      // every event seen); the group table persists, since a sliding
      // query's window conceptually keeps moving.
      EmitSlidingWindow((last_timestamp_ / options_.slide + 1) *
                        options_.slide);
    } else {
      CloseWindow(current_window_start_ + std::max<uint64_t>(
                                              options_.window_size, 1));
    }
  }
  return Poll();
}

size_t StreamQuery::NumOpenGroups() const { return groups_.size(); }

std::vector<uint8_t> StreamQuery::SerializeState() const {
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU8(kCheckpointVersion);
  // Option fingerprint, so a checkpoint cannot be restored into a query
  // with an incompatible shape. Knobs the aggregate does not read are
  // written as zero (engine_detail::RelevantKnobs), so queries that
  // differ only in unused knobs produce byte-identical checkpoints.
  const engine_detail::OptionKnobs knobs = engine_detail::RelevantKnobs(options_);
  w.PutU8(static_cast<uint8_t>(options_.aggregate));
  w.PutU64(options_.window_size);
  w.PutU64(options_.slide);
  w.PutU8(knobs.hll_precision);
  w.PutVarint(knobs.top_k_capacity);
  w.PutVarint(knobs.top_k);
  w.PutU32(knobs.kll_k);
  w.PutU64(seed_);
  // Window bookkeeping.
  w.PutU8(window_initialized_ ? 1 : 0);
  w.PutU64(current_window_start_);
  w.PutU64(last_timestamp_);
  // Open groups, sorted by group id (the flat table's own order is
  // insertion-dependent); each sketch is a standard wire envelope, so any
  // registry-aware reader can inspect a checkpoint's sketches.
  w.PutVarint(groups_.size());
  for (const auto& [group, state] : SortedGroups()) {
    w.PutU64(group);
    w.PutI64(state->sum);
    uint8_t present = 0;
    if (state->distinct.has_value()) present |= kHasDistinct;
    if (state->top.has_value()) present |= kHasTop;
    if (state->quantiles.has_value()) present |= kHasQuantiles;
    if (state->sliding.has_value()) present |= kHasSliding;
    if (state->sliding_top.has_value()) present |= kHasSlidingTop;
    if (state->sliding_quantiles.has_value()) present |= kHasSlidingQuantiles;
    w.PutU8(present);
    if (state->distinct.has_value()) {
      const std::vector<uint8_t> bytes = state->distinct->Serialize();
      w.PutBytes(bytes.data(), bytes.size());
    }
    if (state->sliding.has_value()) {
      const std::vector<uint8_t> bytes = state->sliding->Serialize();
      w.PutBytes(bytes.data(), bytes.size());
    }
    if (state->sliding_top.has_value()) {
      SerializeRing(w, *state->sliding_top);
    }
    if (state->sliding_quantiles.has_value()) {
      SerializeRing(w, *state->sliding_quantiles);
    }
    if (state->top.has_value()) {
      const std::vector<uint8_t> bytes = state->top->Serialize();
      w.PutBytes(bytes.data(), bytes.size());
    }
    if (state->quantiles.has_value()) {
      const std::vector<uint8_t> bytes = state->quantiles->Serialize();
      w.PutBytes(bytes.data(), bytes.size());
    }
  }
  // Closed-but-unpolled windows (already materialized results).
  engine_detail::SerializeWindows(w, closed_);
  std::vector<uint8_t> body = std::move(w).TakeBytes();
  const uint64_t checksum =
      XxHash64(body.data(), body.size(), kCheckpointChecksumSeed);
  for (int shift = 0; shift < 64; shift += 8) {
    body.push_back(static_cast<uint8_t>(checksum >> shift));
  }
  return body;
}

Status StreamQuery::RestoreState(std::span<const uint8_t> bytes) {
  RegisterBuiltinSketches();
  if (bytes.size() < 8) {
    return Status::Corruption("stream query checkpoint: too short");
  }
  const size_t body_size = bytes.size() - 8;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(bytes[body_size + i]) << (8 * i);
  }
  if (XxHash64(bytes.data(), body_size, kCheckpointChecksumSeed) != stored) {
    return Status::Corruption("stream query checkpoint: checksum mismatch");
  }
  ByteReader r(bytes.data(), body_size);
  uint32_t magic;
  uint8_t version;
  if (Status s = r.GetU32(&magic); !s.ok()) return s;
  if (magic != kCheckpointMagic) {
    return Status::Corruption("stream query checkpoint: bad magic");
  }
  if (Status s = r.GetU8(&version); !s.ok()) return s;
  if (version < 1 || version > kCheckpointVersion) {
    return Status::Corruption(
        "stream query checkpoint: unsupported version");
  }
  uint8_t aggregate, hll_precision;
  uint64_t window_size, slide = 0, top_capacity, top_k, seed;
  uint32_t kll_k;
  if (Status s = r.GetU8(&aggregate); !s.ok()) return s;
  if (Status s = r.GetU64(&window_size); !s.ok()) return s;
  if (version >= 2) {
    if (Status s = r.GetU64(&slide); !s.ok()) return s;
  }
  if (Status s = r.GetU8(&hll_precision); !s.ok()) return s;
  if (Status s = r.GetVarint(&top_capacity); !s.ok()) return s;
  if (Status s = r.GetVarint(&top_k); !s.ok()) return s;
  if (Status s = r.GetU32(&kll_k); !s.ok()) return s;
  if (Status s = r.GetU64(&seed); !s.ok()) return s;
  // Version 3 images carry aggregate-relevant knobs only (unused fields
  // zeroed); version 1/2 images were written with the raw option values.
  const engine_detail::OptionKnobs expected =
      version >= 3
          ? engine_detail::RelevantKnobs(options_)
          : engine_detail::OptionKnobs{
                static_cast<uint8_t>(options_.hll_precision),
                options_.top_k_capacity, options_.top_k, options_.kll_k};
  if (aggregate != static_cast<uint8_t>(options_.aggregate) ||
      window_size != options_.window_size || slide != options_.slide ||
      hll_precision != expected.hll_precision ||
      top_capacity != expected.top_k_capacity || top_k != expected.top_k ||
      kll_k != expected.kll_k || seed != seed_) {
    return Status::InvalidArgument(
        "stream query checkpoint was taken with different options or seed");
  }

  uint8_t initialized;
  uint64_t window_start, last_timestamp, num_groups;
  if (Status s = r.GetU8(&initialized); !s.ok()) return s;
  if (initialized > 1) {
    return Status::Corruption("stream query checkpoint: bad bool");
  }
  if (Status s = r.GetU64(&window_start); !s.ok()) return s;
  if (Status s = r.GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = r.GetVarint(&num_groups); !s.ok()) return s;

  const size_t ring_panes =
      options_.slide > 0 ? options_.window_size / options_.slide : 0;
  uint8_t expected_present = 0;
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      expected_present = options_.slide > 0 ? kHasSliding : kHasDistinct;
      break;
    case AggregateKind::kTopK:
      expected_present = options_.slide > 0 ? kHasSlidingTop : kHasTop;
      break;
    case AggregateKind::kQuantiles:
      expected_present =
          options_.slide > 0 ? kHasSlidingQuantiles : kHasQuantiles;
      break;
    case AggregateKind::kSum:
      break;
  }
  FlatMap64<GroupState> groups;
  for (uint64_t i = 0; i < num_groups; ++i) {
    uint64_t group;
    uint8_t present;
    GroupState state;
    if (Status s = r.GetU64(&group); !s.ok()) return s;
    if (Status s = r.GetI64(&state.sum); !s.ok()) return s;
    if (Status s = r.GetU8(&present); !s.ok()) return s;
    uint8_t known = kHasDistinct | kHasTop | kHasQuantiles;
    if (version >= 2) known |= kHasSliding;
    if (version >= 3) known |= kHasSlidingTop | kHasSlidingQuantiles;
    if ((present & ~known) != 0) {
      return Status::Corruption(
          "stream query checkpoint: unknown sketch presence bits");
    }
    // A group holds exactly the one sketch StateFor builds for this
    // query's aggregate and window shape (SUM: none). Any other set is a
    // forged or damaged image (the fingerprint above already matched), and
    // would leave a later update or emission reading an absent sketch.
    if (present != expected_present) {
      return Status::Corruption(
          "stream query checkpoint: group sketches do not match the query");
    }
    if (present & kHasDistinct) {
      if (Status s = RestoreSketch(&r, &state.distinct); !s.ok()) return s;
    }
    if (present & kHasSliding) {
      if (Status s = RestoreSketch(&r, &state.sliding); !s.ok()) return s;
    }
    if (present & kHasSlidingTop) {
      if (Status s = RestoreRing(&r, SpaceSaving(options_.top_k_capacity),
                                 options_.slide, ring_panes,
                                 &state.sliding_top);
          !s.ok()) {
        return s;
      }
    }
    if (present & kHasSlidingQuantiles) {
      if (Status s = RestoreRing(
              &r, KllSketch(options_.kll_k, Hash64(group, seed_)),
              options_.slide, ring_panes, &state.sliding_quantiles);
          !s.ok()) {
        return s;
      }
    }
    if (present & kHasTop) {
      if (Status s = RestoreSketch(&r, &state.top); !s.ok()) return s;
    }
    if (present & kHasQuantiles) {
      if (Status s = RestoreSketch(&r, &state.quantiles); !s.ok()) return s;
    }
    // ... built with the query's parameters, as StateFor builds it.
    const bool fits =
        (!state.distinct.has_value() ||
         (state.distinct->precision() == options_.hll_precision &&
          state.distinct->seed() == seed_)) &&
        (!state.sliding.has_value() ||
         (state.sliding->precision() == options_.hll_precision &&
          state.sliding->seed() == seed_ &&
          state.sliding->pane_width() == options_.slide &&
          state.sliding->num_panes() == ring_panes)) &&
        (!state.top.has_value() ||
         state.top->capacity() == options_.top_k_capacity) &&
        (!state.quantiles.has_value() ||
         state.quantiles->k() == options_.kll_k);
    if (!fits) {
      return Status::Corruption(
          "stream query checkpoint: sketch parameters do not match the query");
    }
    groups[group] = std::move(state);
  }

  std::deque<WindowResult> closed;
  if (Status s = engine_detail::DeserializeWindows(r, &closed); !s.ok()) {
    return s;
  }
  if (!r.AtEnd()) {
    return Status::Corruption("stream query checkpoint: trailing bytes");
  }

  window_initialized_ = initialized == 1;
  current_window_start_ = window_start;
  last_timestamp_ = last_timestamp;
  groups_ = std::move(groups);
  closed_ = std::move(closed);
  return Status::Ok();
}

}  // namespace gems
