#include "server/keyspace.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "core/registry.h"
#include "hash/hash.h"

namespace gems {
namespace server {

namespace {

constexpr uint8_t kCheckpointVersion = 1;
constexpr uint64_t kShardSeed = 0x6765'6D73'6421ULL;  // "gemsd!"
constexpr uint32_t kDefaultListLimit = 64;

/// Builds a live wrapper whose state is `state`. The wrapper is
/// created from a *default* prototype of the same type and the state is
/// folded in via Reset: seeding the prototype with the state itself
/// would copy it into every writer-slot delta and double-count on fold.
Result<ConcurrentAnySketch> ReviveSketch(
    AnySketch state, const ConcurrentAnySketch::Options& options) {
  const SketchRegistry::Entry* entry =
      SketchRegistry::Global().Find(state.type());
  if (entry == nullptr || !entry->make_default) {
    return Status::Corruption(
        std::string("checkpoint holds sketch type ") + state.type_name() +
        " with no registered default factory");
  }
  Result<ConcurrentAnySketch> live =
      ConcurrentAnySketch::Make(entry->make_default(), options);
  if (!live.ok()) return live.status();
  if (Status s = live.value().Reset(std::move(state)); !s.ok()) return s;
  return live;
}

}  // namespace

Keyspace::Keyspace(KeyspaceOptions options) : options_(options) {
  size_t shards = std::bit_ceil(std::max<size_t>(options_.num_shards, 1));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shards - 1;
}

const Keyspace::Shard& Keyspace::ShardFor(const std::string& key) const {
  return *shards_[Hash64(key.data(), key.size(), kShardSeed) & shard_mask_];
}

Keyspace::Shard& Keyspace::ShardFor(const std::string& key) {
  return *shards_[Hash64(key.data(), key.size(), kShardSeed) & shard_mask_];
}

Status Keyspace::Create(const std::string& key,
                        const std::string& sketch_type,
                        const TimedSketchParams& params) {
  if (key.empty()) {
    return Status::InvalidArgument("key must be non-empty");
  }
  const bool timed = params.pane_width != 0 || params.num_panes != 0 ||
                     params.half_life != 0.0;
  Result<ConcurrentAnySketch> sketch =
      timed ? ConcurrentAnySketch::MakeTimedByName(sketch_type, params,
                                                   options_.sketch_options)
            : ConcurrentAnySketch::MakeByName(sketch_type,
                                              options_.sketch_options);
  if (!sketch.ok()) return sketch.status();
  if (options_.max_keys != 0 && size() >= options_.max_keys) {
    return Status::ResourceExhausted(
        "keyspace at its cap of " + std::to_string(options_.max_keys) +
        " keys");
  }
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto [it, inserted] = shard.keys.emplace(key, std::move(sketch).value());
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("key '" + key + "' already exists");
  }
  return Status::Ok();
}

Status Keyspace::Drop(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (shard.keys.erase(key) == 0) {
    return Status::NotFound("no key '" + key + "'");
  }
  return Status::Ok();
}

Status Keyspace::Update(const std::string& key,
                        std::span<const uint64_t> items,
                        std::span<const uint64_t> timestamps) {
  Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.keys.find(key);
  if (it == shard.keys.end()) {
    return Status::NotFound("no key '" + key + "'");
  }
  if (!timestamps.empty()) {
    return it->second.ApplyBatchTimed(timestamps, items);
  }
  return it->second.ApplyBatch(items);
}

Status Keyspace::Merge(const std::string& key, ByteSpan envelope,
                       bool trusted) {
  Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.keys.find(key);
  if (it == shard.keys.end()) {
    return Status::NotFound("no key '" + key + "'");
  }
  const SketchRegistry& registry = SketchRegistry::Global();
  Result<AnySketchView> view = trusted ? registry.WrapTrusted(envelope)
                                       : registry.Wrap(envelope);
  if (!view.ok()) return view.status();
  return it->second.MergeFromView(view.value().sketch_view());
}

Result<QueryResult> Keyspace::Query(const std::string& key, bool has_item,
                                    uint64_t item, double confidence) const {
  const Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.keys.find(key);
  if (it == shard.keys.end()) {
    return Status::NotFound("no key '" + key + "'");
  }
  const ConcurrentAnySketch& sketch = it->second;
  QueryResult result;
  Result<gems::Estimate> estimate =
      has_item ? sketch.EstimateItemWithBounds(item, confidence)
               : sketch.EstimateWithBounds(confidence);
  if (estimate.ok()) {
    result.has_estimate = true;
    result.estimate = estimate.value();
  } else if (estimate.status().code() != StatusCode::kUnimplemented) {
    return estimate.status();
  }
  result.summary = sketch.EstimateSummary();
  result.epoch = sketch.epoch();
  return result;
}

Keyspace::ListResult Keyspace::List(const std::string& prefix,
                                    uint32_t limit) const {
  if (limit == 0) limit = kDefaultListLimit;
  ListResult result;
  std::vector<ListEntry> matches;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    // Ordered maps make the prefix range a lower_bound walk per shard.
    for (auto it = shard->keys.lower_bound(prefix);
         it != shard->keys.end() && it->first.starts_with(prefix); ++it) {
      matches.push_back(
          {it->first, SketchTypeName(it->second.type())});
    }
  }
  result.total = matches.size();
  std::sort(matches.begin(), matches.end(),
            [](const ListEntry& a, const ListEntry& b) {
              return a.key < b.key;
            });
  if (matches.size() > limit) matches.resize(limit);
  result.entries = std::move(matches);
  return result;
}

Status Keyspace::Checkpoint(ByteSink& sink) const {
  sink.PutU8(kCheckpointVersion);
  const size_t count_at = sink.size();
  sink.PutU32(0);  // Entry count, patched below.
  uint32_t count = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    for (const auto& [key, sketch] : shard->keys) {
      Result<AnySketch> snapshot = sketch.Snapshot();
      if (!snapshot.ok()) return snapshot.status();
      sink.PutString(key);
      const size_t length_at = sink.size();
      sink.PutU32(0);  // Envelope length, patched below.
      snapshot.value().SerializeTo(sink);
      sink.PatchU32(length_at,
                    static_cast<uint32_t>(sink.size() - length_at - 4));
      ++count;
    }
  }
  sink.PatchU32(count_at, count);
  return Status::Ok();
}

Status Keyspace::Restore(ByteSpan image) {
  ByteReader reader(image);
  uint8_t version = 0;
  if (Status s = reader.GetU8(&version); !s.ok()) return s;
  if (version != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(int{version}));
  }
  uint32_t count = 0;
  if (Status s = reader.GetU32(&count); !s.ok()) return s;

  // Parse and rebuild everything before touching live state, so a corrupt
  // image cannot leave the keyspace half-replaced.
  const SketchRegistry& registry = SketchRegistry::Global();
  std::vector<std::pair<std::string, ConcurrentAnySketch>> revived;
  revived.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string key;
    if (Status s = reader.GetString(&key); !s.ok()) return s;
    uint32_t length = 0;
    if (Status s = reader.GetU32(&length); !s.ok()) return s;
    ByteSpan envelope;
    if (Status s = reader.GetRawView(length, &envelope); !s.ok()) return s;
    Result<AnySketch> state = registry.Deserialize(envelope);
    if (!state.ok()) return state.status();
    Result<ConcurrentAnySketch> live =
        ReviveSketch(std::move(state).value(), options_.sketch_options);
    if (!live.ok()) return live.status();
    revived.emplace_back(std::move(key), std::move(live).value());
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after checkpoint image");
  }
  if (options_.max_keys != 0 && revived.size() > options_.max_keys) {
    return Status::ResourceExhausted(
        "checkpoint holds more keys than this keyspace's cap");
  }

  // Swap in: exclusive lock shard by shard. Duplicate keys in the image
  // collapse last-writer-wins, matching a map rebuild.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mutex);
    shard->keys.clear();
  }
  for (auto& [key, sketch] : revived) {
    Shard& shard = ShardFor(key);
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    shard.keys.insert_or_assign(std::move(key), std::move(sketch));
  }
  return Status::Ok();
}

size_t Keyspace::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->keys.size();
  }
  return total;
}

}  // namespace server
}  // namespace gems
