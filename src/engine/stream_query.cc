#include "engine/stream_query.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>
#include <variant>

#include "common/bytes.h"
#include "common/check.h"
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
/// reliably as damage inside a sketch envelope. Only version 3 restores;
/// earlier images (no sliding TOP-K or QUANTILES, raw option knobs in the
/// fingerprint) are refused.
constexpr uint32_t kCheckpointMagic = 0x514D4547;  // "GEMQ" little-endian.
constexpr uint8_t kCheckpointVersion = 3;
constexpr uint64_t kCheckpointChecksumSeed = 0x474D5351;  // "QSMG".

// One overload per group-state alternative for each job — update, pick
// the pane, snapshot, serialize, restore — so nothing below switches on
// the aggregate or the window shape.

/// Adds one accepted event to the sketch it lands in: the HLL takes the
/// item's hash word under the query seed, SpaceSaving the item weighted
/// max(1, value), KLL the value, and SUM adds the value.
void Add(HyperLogLog& hll, const StreamEvent&, uint64_t hash) {
  hll.UpdateHash(hash);
}
void Add(SpaceSaving& top, const StreamEvent& event, uint64_t) {
  top.Update(event.item, std::max<int64_t>(1, event.value));
}
void Add(KllSketch& kll, const StreamEvent& event, uint64_t) {
  kll.Update(static_cast<double>(event.value));
}
void Add(int64_t& sum, const StreamEvent& event, uint64_t) {
  sum += event.value;
}

/// The sketch an event at `timestamp` lands in: the state itself, or for a
/// sliding window the ring's pane for that timestamp (opened if new).
template <typename S>
S& PaneAt(S& state, uint64_t) {
  return state;
}
HyperLogLog& PaneAt(SlidingHyperLogLog& state, uint64_t timestamp) {
  return state.SummaryAt(timestamp);
}
template <typename S>
S& PaneAt(PaneRing<S>& ring, uint64_t timestamp) {
  return ring.SummaryAt(timestamp);
}

/// The summary of the window ending at `boundary` (exclusive): the state
/// itself, or for a sliding window the ring advanced to the last instant
/// before the boundary — which expires panes older than the window
/// without opening the boundary's own pane — then its memoized merge,
/// re-merged only if the group mutated since the last emission.
template <typename S>
const S& WindowAt(S& state, uint64_t) {
  return state;
}
const HyperLogLog& WindowAt(SlidingHyperLogLog& state, uint64_t boundary) {
  state.Advance(boundary - 1);
  return state.WindowSummary();
}
template <typename S>
const S& WindowAt(PaneRing<S>& ring, uint64_t boundary) {
  ring.Advance(boundary - 1);
  return ring.WindowSummary();
}

/// Turns a window's summary into its result row.
void Fill(const HyperLogLog& hll, const StreamQuery::Options&,
          GroupAggregate* out) {
  out->scalar = hll.Estimate();
}
void Fill(const SpaceSaving& top, const StreamQuery::Options& options,
          GroupAggregate* out) {
  for (const SpaceSaving::Entry& entry : top.TopK(options.top_k)) {
    out->top_items.emplace_back(entry.item, entry.count);
  }
}
void Fill(const KllSketch& kll, const StreamQuery::Options& options,
          GroupAggregate* out) {
  if (kll.Count() == 0) {
    out->quantiles.assign(options.quantile_points.size(), 0.0);
  } else {
    out->quantiles = kll.Quantiles(options.quantile_points);
  }
}
void Fill(const int64_t& sum, const StreamQuery::Options&,
          GroupAggregate* out) {
  out->scalar = static_cast<double>(sum);
}

/// Writes a group's state after its sum and presence byte: nothing for
/// SUM (the sum field holds it), a sketch's wire envelope, or a pane
/// ring's clock followed by each live pane as (pane id, wire envelope) —
/// so a registry-aware reader can still inspect every sketch inside a
/// checkpoint. The sliding HLL is a sketch with its own envelope.
void Put(ByteWriter&, const int64_t&) {}
template <typename S>
void Put(ByteWriter& w, const S& sketch) {
  const std::vector<uint8_t> bytes = sketch.Serialize();
  w.PutBytes(bytes.data(), bytes.size());
}
template <typename S>
void Put(ByteWriter& w, const PaneRing<S>& ring) {
  w.PutU64(ring.last_timestamp());
  w.PutVarint(ring.NumLivePanes());
  ring.ForEachPane([&w](uint64_t id, const S& pane) {
    w.PutU64(id);
    Put(w, pane);
  });
}

/// A group's presence byte in the checkpoint, from its GroupState
/// alternative: 0 for SUM, then one bit per sketch in alternative order —
/// HLL 1, SpaceSaving 2, KLL 4, sliding HLL 8, sliding TOP-K 16, sliding
/// QUANTILES 32.
uint8_t PresenceBit(size_t alternative) {
  return alternative == 0 ? 0 : static_cast<uint8_t>(1u << (alternative - 1));
}

/// Whether a restored sketch was built like the query builds it, so it
/// merges with (and updates like) its fresh counterpart.
bool SameParameters(const HyperLogLog& a, const HyperLogLog& b) {
  return a.precision() == b.precision() && a.seed() == b.seed();
}
bool SameParameters(const SlidingHyperLogLog& a, const SlidingHyperLogLog& b) {
  return a.precision() == b.precision() && a.seed() == b.seed() &&
         a.pane_width() == b.pane_width() && a.num_panes() == b.num_panes();
}
bool SameParameters(const SpaceSaving& a, const SpaceSaving& b) {
  return a.capacity() == b.capacity();
}
bool SameParameters(const KllSketch& a, const KllSketch& b) {
  return a.k() == b.k();
}

/// Reads a group's state written by Put into `state`, which holds the
/// group's fresh state; a sketch built with other parameters is
/// kCorruption. Sketch envelopes are parsed in place (borrowed views of
/// the checkpoint body).
Status Get(ByteReader&, int64_t&) { return Status::Ok(); }
template <typename S>
Status Get(ByteReader& r, S& state) {
  std::span<const uint8_t> envelope;
  if (Status s = r.GetBytesView(&envelope); !s.ok()) return s;
  Result<S> restored = S::Deserialize(envelope);
  if (!restored.ok()) return restored.status();
  if (!SameParameters(restored.value(), state)) {
    return Status::Corruption(
        "stream query checkpoint: sketch parameters do not match the query");
  }
  state = std::move(restored).value();
  return Status::Ok();
}
template <typename S>
Status Get(ByteReader& r, PaneRing<S>& ring) {
  uint64_t last_timestamp, count;
  if (Status s = r.GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = r.GetVarint(&count); !s.ok()) return s;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    S pane = ring.prototype();
    if (Status s = r.GetU64(&id); !s.ok()) return s;
    // The ring merges its panes with GEMS_CHECK, so a pane that cannot
    // merge with the prototype must stop here.
    if (Status s = Get(r, pane); !s.ok()) return s;
    if (Status s = ring.AppendPane(id, std::move(pane)); !s.ok()) return s;
  }
  // The clock sits in the newest pane, as Advance leaves it; an older
  // clock, or a clock with no panes, would send later events to the wrong
  // pane.
  if (count == 0 ? last_timestamp != 0
                 : last_timestamp / ring.pane_width() < ring.CurrentPaneId()) {
    return Status::Corruption(
        "stream query checkpoint: pane ring clock behind its panes");
  }
  // Restore the ring clock; AppendPane left it at zero.
  if (ring.started()) ring.Advance(last_timestamp);
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
      w.PutDoubles(aggregate.quantiles);
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
        uint64_t item = 0;
        int64_t count = 0;
        if (Status s = r.GetU64(&item); !s.ok()) return s;
        if (Status s = r.GetI64(&count); !s.ok()) return s;
        aggregate_row.top_items.emplace_back(item, count);
      }
      if (Status s = r.GetVarint(&num_quantiles); !s.ok()) return s;
      if (Status s = r.GetDoubles(num_quantiles, &aggregate_row.quantiles);
          !s.ok()) {
        return s;
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

StreamQuery::GroupState StreamQuery::NewState(uint64_t group) const {
  const uint64_t slide = options_.slide;
  const size_t num_panes = slide > 0 ? options_.window_size / slide : 0;
  switch (options_.aggregate) {
    case AggregateKind::kCountDistinct:
      if (slide > 0) {
        return SlidingHyperLogLog(options_.hll_precision, slide, num_panes,
                                  seed_);
      }
      return HyperLogLog(options_.hll_precision, seed_);
    case AggregateKind::kTopK: {
      SpaceSaving top(options_.top_k_capacity);
      if (slide > 0) return PaneRing<SpaceSaving>(top, slide, num_panes);
      return top;
    }
    case AggregateKind::kQuantiles: {
      // Per-group compaction seed, so groups do not compact in lockstep.
      KllSketch quantiles(options_.kll_k, Hash64(group, seed_));
      if (slide > 0) return PaneRing<KllSketch>(quantiles, slide, num_panes);
      return quantiles;
    }
    case AggregateKind::kSum:
      break;  // AdvanceWindow rejects sliding SUM before any group opens.
  }
  return int64_t{0};
}

StreamQuery::GroupState& StreamQuery::StateFor(uint64_t group) {
  if (GroupState* state = groups_.Find(group)) return *state;
  GroupState& state = groups_[group];
  state = NewState(group);
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

Status StreamQuery::Process(const StreamEvent& event) {
  if (Status s = AdvanceWindow(event.timestamp, event.timestamp); !s.ok()) {
    return s;
  }
  if (!PassesFilters(event)) return Status::Ok();
  const uint64_t hash = options_.aggregate == AggregateKind::kCountDistinct
                            ? Hash64(event.item, seed_)
                            : 0;
  std::visit(
      [&](auto& state) { Add(PaneAt(state, event.timestamp), event, hash); },
      StateFor(event.group));
  if (live_distinct_ != nullptr) live_distinct_->Update(event.item);
  return Status::Ok();
}

Status StreamQuery::ProcessBatch(std::span<const StreamEvent> events) {
  return ProcessChunks(events, nullptr);
}

Status StreamQuery::ProcessBatchParallel(std::span<const StreamEvent> events,
                                         ThreadPool& pool) {
  return ProcessChunks(events, &pool);
}

Status StreamQuery::ProcessBatchPrehashed(std::span<const StreamEvent> events,
                                          const GroupRuns& runs,
                                          std::span<const uint64_t> hashes,
                                          std::span<const uint8_t> accept) {
  return ApplyRuns(events, runs, hashes, accept, nullptr);
}

Status StreamQuery::ProcessChunks(std::span<const StreamEvent> events,
                                  ThreadPool* pool) {
  const uint64_t period =
      options_.slide > 0 ? options_.slide : options_.window_size;
  GroupRuns runs;
  std::vector<uint8_t> accept;
  constexpr size_t kChunk = 32768;
  while (!events.empty()) {
    const std::span<const StreamEvent> chunk =
        events.first(std::min(events.size(), kChunk));
    runs.Build(chunk, std::span<const uint64_t>(&period, 1));
    // Predicates run here, on this thread and in stream order, over the
    // events the runs cover; the core (and its workers) read only the
    // accept column.
    accept.clear();
    if (!filters_.empty()) {
      accept.resize(chunk.size(), 0);
      for (size_t i = 0; i < runs.ordered_prefix(); ++i) {
        accept[i] = PassesFilters(chunk[i]) ? 1 : 0;
      }
    }
    if (Status s = ApplyRuns(chunk, runs, {}, accept, pool); !s.ok()) {
      return s;
    }
    events = events.subspan(chunk.size());
  }
  return Status::Ok();
}

Status StreamQuery::ApplyRuns(std::span<const StreamEvent> events,
                              const GroupRuns& runs,
                              std::span<const uint64_t> hashes,
                              std::span<const uint8_t> accept,
                              ThreadPool* pool) {
  GEMS_CHECK(hashes.empty() || hashes.size() == events.size());
  GEMS_CHECK(accept.empty() || accept.size() == events.size());
  GEMS_CHECK(runs.BuiltFrom(events));
  GEMS_CHECK(runs.CutsAt(options_.slide > 0 ? options_.slide
                                            : options_.window_size));
  // Only HLLs read hash words. Without the caller's, hash once here: every
  // group's HLL is built with the query seed, so one Hash64 per event
  // serves whichever group (and pane) it lands in.
  HashedBatch own;
  if (options_.aggregate != AggregateKind::kCountDistinct) {
    hashes = {};
  } else if (hashes.empty()) {
    own.ResetProjected(
        events, [](const StreamEvent& event) { return event.item; }, seed_);
    hashes = own.hashes();
  }
  const std::span<const uint32_t> order = runs.order();
  const auto accepted = [&](uint32_t i) {
    return accept.empty() || accept[i] != 0;
  };
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  // (run, accepted end) of the segment's runs left for the pool.
  std::vector<std::pair<const GroupRuns::Run*, uint32_t>> dealt;
  for (const GroupRuns::Segment& segment : runs.segments()) {
    // No boundary of this query lies inside the segment, so its first
    // event makes every window close or emission the segment causes.
    if (Status s = AdvanceWindow(events[segment.begin].timestamp,
                                 events[segment.end - 1].timestamp);
        !s.ok()) {
      return s;
    }
    dealt.clear();
    for (uint32_t r = segment.first_run; r < segment.end_run; ++r) {
      const GroupRuns::Run& run = runs.runs()[r];
      // Trim rejected events off the run's tail; a run with nothing
      // accepted touches no state (it must not create its group).
      uint32_t end = run.end;
      while (end > run.begin && !accepted(order[end - 1])) --end;
      if (end == run.begin) continue;
      // Groups are created here, on the calling thread, so the table
      // never rehashes while workers hold its slots.
      GroupState& state = StateFor(run.group);
      if (workers > 1) {
        dealt.emplace_back(&run, end);
      } else {
        ApplyRun(state, events, order, run.begin, end, hashes, accept);
      }
    }
    if (!dealt.empty()) {
      // A run is one group's events, so workers never share state.
      const size_t tasks_wanted = std::min(workers, dealt.size());
      std::vector<std::function<void()>> tasks;
      for (size_t t = 0; t < tasks_wanted; ++t) {
        tasks.push_back([&, t, tasks_wanted] {
          for (size_t k = t; k < dealt.size(); k += tasks_wanted) {
            const auto [run, end] = dealt[k];
            ApplyRun(*groups_.Find(run->group), events, order, run->begin,
                     end, hashes, accept);
          }
        });
      }
      pool->RunAll(std::move(tasks));
    }
    if (live_distinct_ != nullptr) {
      for (uint32_t i = segment.begin; i < segment.end; ++i) {
        if (accepted(i)) live_distinct_->Update(events[i].item);
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

void StreamQuery::ApplyRun(GroupState& state,
                           std::span<const StreamEvent> events,
                           std::span<const uint32_t> order, uint32_t begin,
                           uint32_t end, std::span<const uint64_t> hashes,
                           std::span<const uint8_t> accept) {
  // A sliding run lies in one pane: open it once, at the run's last
  // accepted timestamp, as per-event updates leave the ring.
  const uint64_t last = events[order[end - 1]].timestamp;
  std::visit(
      [&](auto& group_state) {
        auto& pane = PaneAt(group_state, last);
        for (uint32_t k = begin; k < end; ++k) {
          const uint32_t i = order[k];
          if (accept.empty() || accept[i] != 0) {
            Add(pane, events[i], hashes.empty() ? 0 : hashes[i]);
          }
        }
      },
      state);
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
  EmitWindow(current_window_start_,
             options_.window_size == 0
                 ? last_timestamp_ + 1
                 : current_window_start_ + options_.window_size);
  groups_.Clear();
  current_window_start_ = next_window_start;
}

void StreamQuery::EmitSlidingWindow(uint64_t boundary) {
  EmitWindow(boundary >= options_.window_size
                 ? boundary - options_.window_size
                 : 0,
             boundary);
  current_window_start_ = boundary;
}

void StreamQuery::EmitWindow(uint64_t start, uint64_t end) {
  WindowResult result;
  result.window_start = start;
  result.window_end = end;
  for (const auto& [group, state] : SortedGroups()) {
    GroupAggregate& aggregate = result.groups.emplace_back();
    aggregate.group = group;
    std::visit(
        [&](auto& group_state) {
          Fill(WindowAt(group_state, end), options_, &aggregate);
        },
        *state);
  }
  closed_.push_back(std::move(result));
  // Window boundaries are the natural staleness bound for the live view:
  // fold this thread's buffered residual so a reader is at most one open
  // window behind the query.
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
    const int64_t* sum = std::get_if<int64_t>(state);
    w.PutI64(sum != nullptr ? *sum : 0);
    w.PutU8(PresenceBit(state->index()));
    std::visit([&w](const auto& group_state) { Put(w, group_state); }, *state);
  }
  // Closed-but-unpolled windows (already materialized results).
  engine_detail::SerializeWindows(w, closed_);
  w.PutU64(XxHash64(w.bytes().data(), w.bytes().size(),
                    kCheckpointChecksumSeed));
  return std::move(w).TakeBytes();
}

Status StreamQuery::RestoreState(std::span<const uint8_t> bytes) {
  if (bytes.size() < 8) {
    return Status::Corruption("stream query checkpoint: too short");
  }
  const size_t body_size = bytes.size() - 8;
  const uint64_t stored = LoadLittleEndian<uint64_t>(bytes.data() + body_size);
  if (XxHash64(bytes.data(), body_size, kCheckpointChecksumSeed) != stored) {
    return Status::Corruption("stream query checkpoint: checksum mismatch");
  }
  ByteReader r(bytes.data(), body_size);
  uint32_t magic = 0;
  uint8_t version = 0;
  if (Status s = r.GetU32(&magic); !s.ok()) return s;
  if (magic != kCheckpointMagic) {
    return Status::Corruption("stream query checkpoint: bad magic");
  }
  if (Status s = r.GetU8(&version); !s.ok()) return s;
  if (version != kCheckpointVersion) {
    return Status::Corruption(
        "stream query checkpoint: unsupported version");
  }
  uint8_t aggregate, hll_precision;
  uint64_t window_size, slide, top_capacity, top_k, seed;
  uint32_t kll_k;
  if (Status s = r.GetU8(&aggregate); !s.ok()) return s;
  if (Status s = r.GetU64(&window_size); !s.ok()) return s;
  if (Status s = r.GetU64(&slide); !s.ok()) return s;
  if (Status s = r.GetU8(&hll_precision); !s.ok()) return s;
  if (Status s = r.GetVarint(&top_capacity); !s.ok()) return s;
  if (Status s = r.GetVarint(&top_k); !s.ok()) return s;
  if (Status s = r.GetU32(&kll_k); !s.ok()) return s;
  if (Status s = r.GetU64(&seed); !s.ok()) return s;
  const engine_detail::OptionKnobs expected =
      engine_detail::RelevantKnobs(options_);
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

  FlatMap64<GroupState> groups;
  for (uint64_t i = 0; i < num_groups; ++i) {
    uint64_t group;
    int64_t sum;
    uint8_t present;
    if (Status s = r.GetU64(&group); !s.ok()) return s;
    if (Status s = r.GetI64(&sum); !s.ok()) return s;
    if (Status s = r.GetU8(&present); !s.ok()) return s;
    // A group holds exactly the state StateFor builds for it. Anything
    // else is a forged or damaged image (the fingerprint above already
    // matched), and would leave a later update or emission reading the
    // wrong sketch.
    GroupState state = NewState(group);
    if (present != PresenceBit(state.index())) {
      return Status::Corruption(
          "stream query checkpoint: group sketches do not match the query");
    }
    if (int64_t* total = std::get_if<int64_t>(&state)) {
      *total = sum;
    } else if (sum != 0) {
      return Status::Corruption(
          "stream query checkpoint: sum on a sketch aggregate");
    }
    if (Status s = std::visit(
            [&r](auto& group_state) { return Get(r, group_state); }, state);
        !s.ok()) {
      return s;
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
