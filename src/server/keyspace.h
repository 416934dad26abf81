#ifndef GEMS_SERVER_KEYSPACE_H_
#define GEMS_SERVER_KEYSPACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/io.h"
#include "core/registry.h"
#include "distributed/concurrent/concurrent_any.h"
#include "server/protocol.h"

/// \file
/// The gemsd data plane: a sharded map of key -> live concurrent sketch.
///
/// Shards are fixed at construction; a key's shard is the XXH64 of its
/// bytes, so placement is stable across restarts. Each shard holds an
/// ordered map under its own reader-writer lock. The lock protects only
/// the *map* — membership and node lifetime — never sketch contents:
/// UPDATE/MERGE/QUERY take the shard lock shared, so requests for
/// different keys (and queries against the same key) proceed in parallel
/// across server threads, and the per-sketch concurrency contract is
/// ConcurrentAnySketch's own (wait-free published reads, folded writes).
/// Only CREATE/DROP/RESTORE take a shard lock exclusive.
///
/// Ack-visibility: Update() routes through ApplyBatch, which applies the
/// items to both copies of the sketch before returning — once the server
/// acks an UPDATE, every subsequent QUERY on any connection sees those
/// items. Queries never take the fold lock (epoch-published reads),
/// so a hot writer cannot stall readers.

namespace gems {
namespace server {

struct KeyspaceOptions {
  /// Shard count; rounded up to a power of two. More shards = less map
  /// lock contention, more fixed overhead.
  size_t num_shards = 64;
  /// Refuse CREATE beyond this many live keys (kResourceExhausted);
  /// 0 = unlimited.
  size_t max_keys = 0;
  /// Per-key sketch wrapper tuning. The defaults here differ from
  /// ConcurrentAnySketch's: a daemon fronting millions of keys wants the
  /// per-key fixed cost (writer slots) small, and its ingest goes through
  /// ApplyBatch rather than the slot machinery anyway.
  ConcurrentAnySketch::Options sketch_options{
      .buffer_items = 128,
      .max_threads = 4,
  };
};

/// Sharded key -> ConcurrentAnySketch map; every public method is
/// thread-safe. Construction requires RegisterBuiltinSketches() to have
/// run (sketch types are resolved by registry name).
class Keyspace {
 public:
  explicit Keyspace(KeyspaceOptions options = KeyspaceOptions{});

  Keyspace(const Keyspace&) = delete;
  Keyspace& operator=(const Keyspace&) = delete;

  /// Creates `key` holding a sketch of the named registered type. An
  /// all-default `params` builds the type's default prototype; any nonzero
  /// window/decay field routes through the registry's timed factory
  /// (kNotFound when the type has none, kInvalidArgument for parameters
  /// the family rejects). kAlreadyExists if the key is live,
  /// kResourceExhausted at the max_keys cap.
  Status Create(const std::string& key, const std::string& sketch_type,
                const TimedSketchParams& params = {});

  /// Removes `key`. kNotFound if absent.
  Status Drop(const std::string& key);

  /// Batched ingest into `key`; ack-visible on return. kNotFound if
  /// absent. A non-empty `timestamps` column (paralleling `items`) routes
  /// through the timed ingest path; untimed sketch families ignore it.
  Status Update(const std::string& key, std::span<const uint64_t> items,
                std::span<const uint64_t> timestamps = {});

  /// Fans a serialized sketch envelope into `key`'s live state, zero-copy
  /// for families with a view merge. `trusted` selects WrapTrusted
  /// (structural validation only, checksum skipped) for same-failure-
  /// domain peers; untrusted bytes get the full check. Type and parameter
  /// mismatches surface as the sketch's own typed status.
  Status Merge(const std::string& key, ByteSpan envelope, bool trusted);

  /// Wait-free read of `key`'s published state: the whole-sketch estimate
  /// (or the per-item estimate when `has_item`), the one-line summary,
  /// and the publication epoch. `has_estimate` is false for families with
  /// no numeric estimate of the requested shape — the summary line is
  /// still returned.
  Result<QueryResult> Query(const std::string& key, bool has_item,
                            uint64_t item, double confidence) const;

  struct ListResult {
    /// Keys matching the prefix, before the limit cut.
    uint64_t total = 0;
    std::vector<ListEntry> entries;
  };

  /// Keys with the given prefix, sorted, capped at `limit` (0 = 64).
  ListResult List(const std::string& prefix, uint32_t limit) const;

  /// Serializes every key's quiesced snapshot into `sink` as one
  /// checkpoint image: u8 format version, u32 entry count, then per entry
  /// a varint-prefixed key and a u32-length-prefixed wire envelope
  /// (exactly the bytes AnySketch::SerializeTo writes, so the image is
  /// mergeable by any envelope consumer).
  Status Checkpoint(ByteSink& sink) const;

  /// Replaces the entire keyspace with a checkpoint image. All-or-
  /// nothing: the image is fully parsed and every sketch rebuilt before
  /// any live state is touched; on any error the keyspace is unchanged.
  Status Restore(ByteSpan image);

  /// Live key count.
  size_t size() const;

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::map<std::string, ConcurrentAnySketch> keys;
  };

  const Shard& ShardFor(const std::string& key) const;
  Shard& ShardFor(const std::string& key);

  KeyspaceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t shard_mask_ = 0;
};

}  // namespace server
}  // namespace gems

#endif  // GEMS_SERVER_KEYSPACE_H_
