#ifndef GEMS_SERVER_CLIENT_H_
#define GEMS_SERVER_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/protocol.h"

/// \file
/// Blocking gemsd client. One connection, synchronous request/response
/// round trips; not thread-safe (use one client per thread — connections
/// are cheap and the daemon scales them across its event loops).
///
/// Error surface: server-side failures arrive as the daemon's own typed
/// StatusCode transported verbatim in the response frame and are
/// reassembled here via StatusCodeFromWire + Status::FromCode, so
/// `client.Update(...)` failing with kNotFound is indistinguishable from
/// the in-process `keyspace.Update(...)` failing the same way. Transport
/// failures (connect, reset, short read) are kUnavailable; protocol
/// violations by the peer are kCorruption.

namespace gems {
namespace server {

class GemsdClient {
 public:
  /// Connects to a gemsd at host:port (IPv4 dotted quad).
  static Result<GemsdClient> Connect(const std::string& host, uint16_t port);

  GemsdClient() = default;
  GemsdClient(GemsdClient&& other) noexcept;
  GemsdClient& operator=(GemsdClient&& other) noexcept;
  ~GemsdClient();

  GemsdClient(const GemsdClient&) = delete;
  GemsdClient& operator=(const GemsdClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Liveness probe.
  Status Ping();

  /// Creates `key` as a default-parameter sketch of the named type.
  Status Create(const std::string& key, const std::string& sketch_type);

  /// Creates `key` with explicit window/decay parameters for the time
  /// family (pane_width/num_panes for sliding types, half_life for the
  /// decayed Count-Min; zero-valued fields fall back to library defaults).
  Status CreateTimed(const std::string& key, const std::string& sketch_type,
                     uint64_t pane_width, uint32_t num_panes,
                     double half_life = 0.0);

  /// Drops `key`.
  Status Drop(const std::string& key);

  struct ListResult {
    uint64_t total = 0;
    std::vector<ListEntry> entries;
  };

  /// Keys with the prefix, sorted, capped at `limit` (0 = server default).
  Result<ListResult> List(const std::string& prefix = "",
                          uint32_t limit = 0);

  /// Batched ingest; once this returns Ok the items are query-visible.
  Status Update(const std::string& key, std::span<const uint64_t> items);

  /// Batched timestamped ingest: `timestamps[i]` is the event time of
  /// `items[i]` (same length required). Timed sketch families advance
  /// their window/decay clocks; untimed families ignore the column.
  Status UpdateTimed(const std::string& key,
                     std::span<const uint64_t> items,
                     std::span<const uint64_t> timestamps);

  /// Pipelined round trips: encodes every request (ids assigned here),
  /// ships them in ONE send, then drains the responses in id order — the
  /// classic Redis-style pipelining that amortizes the network RTT over
  /// the window instead of paying it per request. Per-request server
  /// verdicts land in `statuses` (parallel to `requests`); the returned
  /// Status covers the transport/protocol layer only and Ok does NOT mean
  /// every request succeeded. On a transport or protocol failure the
  /// connection is closed and `statuses` holds only the responses drained
  /// so far. Response payloads (query values, blobs) are discarded —
  /// pipeline mutating ops (Update/Merge/Create), not reads.
  Status Pipeline(std::span<Request> requests,
                  std::vector<Status>* statuses);

  /// Ships a serialized sketch envelope for merging into `key`. `trusted`
  /// requests the checksum-skipping structural-validation path — only for
  /// peers in the same failure domain.
  Status Merge(const std::string& key, ByteSpan envelope,
               bool trusted = false);

  /// Whole-sketch estimate query.
  Result<QueryResult> Query(const std::string& key,
                            double confidence = 0.95);

  /// Per-item (frequency) estimate query.
  Result<QueryResult> QueryItem(const std::string& key, uint64_t item,
                                double confidence = 0.95);

  /// Fetches a full checkpoint image of the daemon's keyspace.
  Result<std::vector<uint8_t>> Checkpoint();

  /// Replaces the daemon's keyspace with a checkpoint image.
  Status Restore(ByteSpan image);

 private:
  /// One framed round trip. On success `*response` is decoded and its
  /// borrowed fields point into the receive buffer, valid until the next
  /// call that reads from the connection.
  Status RoundTrip(Request& request, Response* response);

  Status SendAll(const uint8_t* data, size_t size);
  /// Cuts the next frame out of the receive buffer, reading at least
  /// 64 KiB of room per recv() until one is complete. `*body` points into
  /// the buffer and stays valid until the next RecvFrame.
  Status RecvFrame(ByteSpan* body);

  void CloseFd();

  int fd_ = -1;
  uint64_t next_id_ = 1;
  std::vector<uint8_t> send_buffer_;
  /// Received bytes: [recv_pos_, recv_end_) are not yet cut into frames.
  /// The vector's size is its usable capacity, so a read never zeroes it.
  std::vector<uint8_t> recv_buffer_;
  size_t recv_pos_ = 0;
  size_t recv_end_ = 0;
};

}  // namespace server
}  // namespace gems

#endif  // GEMS_SERVER_CLIENT_H_
