#include "engine/multi_query.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "hash/xxhash.h"

namespace gems {

namespace {

/// Engine-unit checkpoint framing; the per-query payloads inside are
/// ordinary StreamQuery checkpoints ("GEMQ" images), themselves built from
/// standard registry envelopes.
constexpr uint32_t kEngineMagic = 0x4D4D4547;  // "GEMM" little-endian.
constexpr uint8_t kEngineVersion = 1;
constexpr uint64_t kEngineChecksumSeed = 0x4D4D5347;  // "GSMM".

/// Canonical identity of a physical query: every option that shapes state
/// or results for this aggregate — knobs the aggregate does not read are
/// canonicalized away (engine_detail::RelevantKnobs), so e.g. two SUM
/// queries that differ only in kll_k share one physical query. The key
/// adds quantile_points for QUANTILES (the StreamQuery checkpoint
/// fingerprint omits them because they only affect emitted results — two
/// queries reading different quantile points from the same KLL must NOT
/// share result views), plus the canonical filter set. Byte-equality of
/// this key is the state-dedup rule.
std::string CanonicalKey(const StreamQuery::Options& options,
                         const std::vector<size_t>& filters) {
  const engine_detail::OptionKnobs knobs =
      engine_detail::RelevantKnobs(options);
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(options.aggregate));
  w.PutU64(options.window_size);
  w.PutU64(options.slide);
  w.PutU8(knobs.hll_precision);
  w.PutVarint(knobs.top_k_capacity);
  w.PutVarint(knobs.top_k);
  w.PutU32(knobs.kll_k);
  if (options.aggregate == AggregateKind::kQuantiles) {
    w.PutVarint(options.quantile_points.size());
    for (double q : options.quantile_points) w.PutDouble(q);
  }
  w.PutVarint(filters.size());
  for (size_t f : filters) w.PutVarint(f);
  const std::vector<uint8_t> bytes = std::move(w).TakeBytes();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

MultiQueryEngine::MultiQueryEngine(uint64_t seed) : seed_(seed) {}

MultiQueryEngine::FilterId MultiQueryEngine::RegisterFilter(
    std::function<bool(const StreamEvent&)> predicate) {
  GEMS_CHECK(predicate != nullptr);
  filters_.push_back(std::move(predicate));
  filter_used_.push_back(0);
  filter_cols_.emplace_back();
  return filters_.size() - 1;
}

MultiQueryEngine::QueryId MultiQueryEngine::AddQuery(
    const StreamQuery::Options& options, std::span<const FilterId> filters) {
  GEMS_CHECK(!ingest_started_);
  std::vector<FilterId> canonical(filters.begin(), filters.end());
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  for (FilterId f : canonical) GEMS_CHECK(f < filters_.size());

  const std::string key = CanonicalKey(options, canonical);
  auto [it, inserted] = group_index_.try_emplace(key, groups_.size());
  if (inserted) {
    for (FilterId f : canonical) filter_used_[f] = 1;
    const uint64_t period =
        options.slide > 0 ? options.slide : options.window_size;
    if (period > 0 && std::find(periods_.begin(), periods_.end(), period) ==
                          periods_.end()) {
      periods_.push_back(period);
    }
    groups_.emplace_back(options, seed_, std::move(canonical));
  }
  ExecGroup& group = groups_[it->second];
  const QueryId id = views_.size();
  group.members.push_back(id);
  views_.push_back(View{it->second, 0});
  return id;
}

void MultiQueryEngine::PrepareChunk(std::span<const StreamEvent> chunk) {
  // One gather + one hash loop for the whole chunk; every COUNT DISTINCT
  // query consumes the same words (all were built with seed_).
  batch_.ResetProjected(
      chunk, [](const StreamEvent& event) { return event.item; }, seed_);
  // One evaluation per (event, distinct predicate) — queries referencing
  // the same FilterId share the column.
  for (size_t f = 0; f < filters_.size(); ++f) {
    if (!filter_used_[f]) continue;
    std::vector<uint8_t>& col = filter_cols_[f];
    col.resize(chunk.size());
    const auto& predicate = filters_[f];
    for (size_t i = 0; i < chunk.size(); ++i) {
      col[i] = predicate(chunk[i]) ? 1 : 0;
    }
  }
  // One group-run partition serves every physical query: segments cut at
  // any query's boundary are boundary-free for each of them.
  runs_.Build(chunk, periods_);
  // Each group's accept column is the AND of its filter columns; byte
  // AND-loops, no per-event std::function dispatch.
  for (ExecGroup& group : groups_) {
    if (group.filters.empty()) {
      group.accept.clear();
      continue;
    }
    const std::vector<uint8_t>& first = filter_cols_[group.filters[0]];
    group.accept.assign(first.begin(), first.end());
    for (size_t k = 1; k < group.filters.size(); ++k) {
      const std::vector<uint8_t>& col = filter_cols_[group.filters[k]];
      for (size_t i = 0; i < group.accept.size(); ++i) {
        group.accept[i] &= col[i];
      }
    }
  }
}

Status MultiQueryEngine::ProcessBatch(std::span<const StreamEvent> events) {
  ingest_started_ = true;
  constexpr size_t kChunk = 32768;
  while (!events.empty()) {
    const std::span<const StreamEvent> chunk =
        events.first(std::min(events.size(), kChunk));
    PrepareChunk(chunk);
    // Dispatch the whole chunk to every physical query even on error, so
    // no query silently misses events another one ingested; then report
    // the first failure.
    Status first = Status::Ok();
    for (ExecGroup& group : groups_) {
      Status s = group.query.ProcessBatchPrehashed(
          chunk, runs_, batch_.hashes(), group.accept);
      if (!s.ok() && first.ok()) first = std::move(s);
    }
    if (!first.ok()) return first;
    events = events.subspan(chunk.size());
  }
  return Status::Ok();
}

Status MultiQueryEngine::ProcessBatchParallel(
    std::span<const StreamEvent> events, ThreadPool& pool) {
  if (pool.num_threads() <= 1 || groups_.size() <= 1) {
    return ProcessBatch(events);
  }
  ingest_started_ = true;
  constexpr size_t kChunk = 32768;
  std::vector<Status> statuses(groups_.size(), Status::Ok());
  while (!events.empty()) {
    const std::span<const StreamEvent> chunk =
        events.first(std::min(events.size(), kChunk));
    // Shared columns and runs are computed once on this thread; workers
    // only read them. Each task owns one physical query's entire state, so
    // the fan-out takes no locks and each query's state is byte-identical
    // to the sequential dispatch order.
    PrepareChunk(chunk);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(groups_.size());
    const GroupRuns& runs = runs_;
    const std::span<const uint64_t> hashes = batch_.hashes();
    for (size_t i = 0; i < groups_.size(); ++i) {
      ExecGroup& group = groups_[i];
      Status& status = statuses[i];
      tasks.push_back([&group, &status, &runs, chunk, hashes] {
        if (!status.ok()) return;  // Earlier chunk already failed here.
        status = group.query.ProcessBatchPrehashed(chunk, runs, hashes,
                                                   group.accept);
      });
    }
    pool.RunAll(std::move(tasks));
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    events = events.subspan(chunk.size());
  }
  return Status::Ok();
}

void MultiQueryEngine::DrainGroup(ExecGroup& group) {
  for (WindowResult& window : group.query.Poll()) {
    group.cache.push_back(std::move(window));
  }
}

void MultiQueryEngine::TrimCache(ExecGroup& group) {
  uint64_t min_cursor = ~uint64_t{0};
  for (QueryId member : group.members) {
    min_cursor = std::min(min_cursor, views_[member].cursor);
  }
  while (group.cache_base < min_cursor && !group.cache.empty()) {
    group.cache.pop_front();
    ++group.cache_base;
  }
}

std::vector<WindowResult> MultiQueryEngine::Poll(QueryId id) {
  GEMS_CHECK(id < views_.size());
  View& view = views_[id];
  ExecGroup& group = groups_[view.group];
  DrainGroup(group);
  std::vector<WindowResult> out;
  const uint64_t end = group.cache_base + group.cache.size();
  out.reserve(end - view.cursor);
  for (uint64_t i = view.cursor; i < end; ++i) {
    out.push_back(group.cache[i - group.cache_base]);
  }
  view.cursor = end;
  TrimCache(group);
  return out;
}

void MultiQueryEngine::Flush() {
  for (ExecGroup& group : groups_) {
    for (WindowResult& window : group.query.Flush()) {
      group.cache.push_back(std::move(window));
    }
  }
}

std::vector<uint8_t> MultiQueryEngine::SerializeQueryState(QueryId id) const {
  GEMS_CHECK(id < views_.size());
  return groups_[views_[id].group].query.SerializeState();
}

std::vector<uint8_t> MultiQueryEngine::SerializeState() const {
  ByteWriter w;
  w.PutU32(kEngineMagic);
  w.PutU8(kEngineVersion);
  w.PutU64(seed_);
  // Registration shape, so a checkpoint cannot be restored into an engine
  // wired differently (predicates themselves are code, not state).
  w.PutVarint(filters_.size());
  w.PutVarint(groups_.size());
  for (const ExecGroup& group : groups_) {
    w.PutVarint(group.filters.size());
    for (FilterId f : group.filters) w.PutVarint(f);
    w.PutVarint(group.members.size());
    for (QueryId member : group.members) w.PutVarint(member);
    const std::vector<uint8_t> nested = group.query.SerializeState();
    w.PutBytes(nested.data(), nested.size());
    w.PutU64(group.cache_base);
    engine_detail::SerializeWindows(w, group.cache);
  }
  w.PutVarint(views_.size());
  for (const View& view : views_) {
    w.PutVarint(view.group);
    w.PutU64(view.cursor);
  }
  std::vector<uint8_t> body = std::move(w).TakeBytes();
  const uint64_t checksum =
      XxHash64(body.data(), body.size(), kEngineChecksumSeed);
  for (int shift = 0; shift < 64; shift += 8) {
    body.push_back(static_cast<uint8_t>(checksum >> shift));
  }
  return body;
}

Status MultiQueryEngine::RestoreState(std::span<const uint8_t> bytes) {
  if (bytes.size() < 8) {
    return Status::Corruption("multi-query checkpoint: too short");
  }
  const size_t body_size = bytes.size() - 8;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(bytes[body_size + i]) << (8 * i);
  }
  if (XxHash64(bytes.data(), body_size, kEngineChecksumSeed) != stored) {
    return Status::Corruption("multi-query checkpoint: checksum mismatch");
  }
  ByteReader r(bytes.data(), body_size);
  uint32_t magic;
  uint8_t version;
  uint64_t seed, num_filters, num_groups;
  if (Status s = r.GetU32(&magic); !s.ok()) return s;
  if (magic != kEngineMagic) {
    return Status::Corruption("multi-query checkpoint: bad magic");
  }
  if (Status s = r.GetU8(&version); !s.ok()) return s;
  if (version != kEngineVersion) {
    return Status::Corruption("multi-query checkpoint: unsupported version");
  }
  if (Status s = r.GetU64(&seed); !s.ok()) return s;
  if (Status s = r.GetVarint(&num_filters); !s.ok()) return s;
  if (Status s = r.GetVarint(&num_groups); !s.ok()) return s;
  if (seed != seed_ || num_filters != filters_.size() ||
      num_groups != groups_.size()) {
    return Status::InvalidArgument(
        "multi-query checkpoint was taken with a different registration");
  }

  // Parse and validate everything into scratch state first; the engine is
  // only mutated once the whole image checks out.
  struct RestoredGroup {
    std::vector<uint8_t> nested;
    uint64_t cache_base = 0;
    std::deque<WindowResult> cache;
  };
  std::vector<RestoredGroup> restored_groups(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    const ExecGroup& group = groups_[g];
    uint64_t group_filters, group_members;
    if (Status s = r.GetVarint(&group_filters); !s.ok()) return s;
    if (group_filters != group.filters.size()) {
      return Status::InvalidArgument(
          "multi-query checkpoint: filter set mismatch");
    }
    for (size_t k = 0; k < group.filters.size(); ++k) {
      uint64_t f;
      if (Status s = r.GetVarint(&f); !s.ok()) return s;
      if (f != group.filters[k]) {
        return Status::InvalidArgument(
            "multi-query checkpoint: filter set mismatch");
      }
    }
    if (Status s = r.GetVarint(&group_members); !s.ok()) return s;
    if (group_members != group.members.size()) {
      return Status::InvalidArgument(
          "multi-query checkpoint: query membership mismatch");
    }
    for (size_t k = 0; k < group.members.size(); ++k) {
      uint64_t member;
      if (Status s = r.GetVarint(&member); !s.ok()) return s;
      if (member != group.members[k]) {
        return Status::InvalidArgument(
            "multi-query checkpoint: query membership mismatch");
      }
    }
    std::span<const uint8_t> nested;
    if (Status s = r.GetBytesView(&nested); !s.ok()) return s;
    restored_groups[g].nested.assign(nested.begin(), nested.end());
    if (Status s = r.GetU64(&restored_groups[g].cache_base); !s.ok()) return s;
    if (Status s =
            engine_detail::DeserializeWindows(r, &restored_groups[g].cache);
        !s.ok()) {
      return s;
    }
  }
  uint64_t num_views;
  if (Status s = r.GetVarint(&num_views); !s.ok()) return s;
  if (num_views != views_.size()) {
    return Status::InvalidArgument(
        "multi-query checkpoint: query count mismatch");
  }
  std::vector<View> restored_views(views_.size());
  for (size_t q = 0; q < views_.size(); ++q) {
    uint64_t group;
    if (Status s = r.GetVarint(&group); !s.ok()) return s;
    if (group != views_[q].group) {
      return Status::InvalidArgument(
          "multi-query checkpoint: query-to-group mapping mismatch");
    }
    restored_views[q].group = views_[q].group;
    if (Status s = r.GetU64(&restored_views[q].cursor); !s.ok()) return s;
    // A cursor points into its group's cache or just past it; Poll indexes
    // the cache with it.
    const RestoredGroup& cached = restored_groups[group];
    if (restored_views[q].cursor < cached.cache_base ||
        restored_views[q].cursor - cached.cache_base > cached.cache.size()) {
      return Status::Corruption(
          "multi-query checkpoint: view cursor outside its group's results");
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("multi-query checkpoint: trailing bytes");
  }

  // Restore the nested query states into fresh queries (so a bad nested
  // image leaves this engine untouched), then commit everything.
  std::vector<StreamQuery> restored_queries;
  restored_queries.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    StreamQuery query(groups_[g].query.options(), seed_);
    if (Status s = query.RestoreState(restored_groups[g].nested); !s.ok()) {
      return s;
    }
    restored_queries.push_back(std::move(query));
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    groups_[g].query = std::move(restored_queries[g]);
    groups_[g].cache_base = restored_groups[g].cache_base;
    groups_[g].cache = std::move(restored_groups[g].cache);
  }
  views_ = std::move(restored_views);
  ingest_started_ = true;
  return Status::Ok();
}

}  // namespace gems
