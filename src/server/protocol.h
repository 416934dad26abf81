#ifndef GEMS_SERVER_PROTOCOL_H_
#define GEMS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"

/// \file
/// The gemsd wire protocol, shared by the server and the client library.
///
/// A connection is a stream of length-prefixed *frames*:
///
///   offset  size  field
///   0       4     body length in bytes (little-endian u32, >= 1)
///   4       ...   body
///
/// A request body is:
///
///   u8   protocol version (kProtocolVersion)
///   u8   opcode (Opcode)
///   u8   flags (kFlagTrustedMerge is the only defined bit)
///   u64  request id, echoed verbatim in the response
///   ...  opcode-specific payload (encodings below)
///
/// A response body is:
///
///   u8   protocol version
///   u8   opcode (echo of the request's)
///   u8   flags (reserved, zero)
///   u64  request id (echo)
///   u8   status code (StatusCode, transported verbatim — the unified
///        error surface: a client sees exactly the typed code the
///        keyspace produced, reassembled via StatusCodeFromWire)
///   str  status message (empty on success)
///   ...  opcode-specific payload, present only when the code is kOk
///
/// Strings are varint-length-prefixed (ByteSink::PutString). Sketch
/// envelopes ride as varint-length-prefixed blobs and are *borrowed* by
/// the decoded structs (ByteSpan into the frame body) so a MERGE fans the
/// peer's envelope into the live sketch zero-copy via SketchRegistry::Wrap.
/// UPDATE items are a u32 count followed by raw little-endian u64s — the
/// densest shape for the batched ingest fast path.
///
/// Every decoder is fed untrusted bytes and must reject truncation,
/// trailing garbage, unknown versions, and oversized frames with a typed
/// Status — never a crash or out-of-bounds read (fuzzed by
/// fuzz/fuzz_protocol.cc).

namespace gems {
namespace server {

inline constexpr uint8_t kProtocolVersion = 1;

/// Frame body cap. Large enough for a checkpoint of a big keyspace blob
/// in one frame; small enough that a hostile length prefix cannot make a
/// connection buffer unbounded.
inline constexpr uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// Request flag bits.
inline constexpr uint8_t kFlagTrustedMerge = 0x01;

/// Operation codes. Values are part of the wire protocol; append only.
enum class Opcode : uint8_t {
  kPing = 1,
  kCreate = 2,
  kDrop = 3,
  kList = 4,
  kUpdate = 5,
  kMerge = 6,
  kQuery = 7,
  kCheckpoint = 8,
  kRestore = 9,
};

/// True if `raw` is an opcode this build knows.
bool IsKnownOpcode(uint8_t raw);

/// Stable lowercase name ("update", "query", ...); "unknown" otherwise.
const char* OpcodeName(Opcode op);

/// A decoded request. String members are copied out of the frame;
/// `items` and `blob` borrow (items via the caller's scratch vector,
/// blob straight from the frame body) and are valid only as long as
/// their backing storage.
struct Request {
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  uint8_t flags = 0;
  uint64_t id = 0;

  /// kCreate/kDrop/kUpdate/kMerge/kQuery: the target key.
  std::string key;
  /// kCreate: registered sketch type name ("hyperloglog", ...).
  std::string sketch_type;
  /// kList: key prefix filter and result cap (0 = server default).
  std::string prefix;
  uint32_t limit = 0;
  /// kCreate: optional window/decay parameters for the time family
  /// (encoded only when has_timed_params is set; zero-valued fields fall
  /// back to library defaults).
  bool has_timed_params = false;
  uint64_t pane_width = 0;
  uint32_t num_panes = 0;
  double half_life = 0.0;
  /// kUpdate: the batch of 64-bit items.
  std::span<const uint64_t> items;
  /// kUpdate: optional timestamp column paralleling `items` (empty when
  /// the update is untimed).
  std::span<const uint64_t> timestamps;
  /// kMerge: a serialized sketch envelope. kRestore: a checkpoint image.
  ByteSpan blob;
  /// kQuery: when has_item is set, a per-item (frequency) probe.
  bool has_item = false;
  uint64_t item = 0;
  double confidence = 0.95;
};

/// One kList result row.
struct ListEntry {
  std::string key;
  std::string type;
};

/// kQuery result payload.
struct QueryResult {
  bool has_estimate = false;
  Estimate estimate;
  std::string summary;
  uint64_t epoch = 0;
};

/// A decoded response. `blob` borrows the frame body.
struct Response {
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  uint64_t id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;

  QueryResult query;               // kQuery
  uint64_t total_keys = 0;         // kList: matches before the limit cut.
  std::vector<ListEntry> entries;  // kList
  ByteSpan blob;                   // kCheckpoint: the checkpoint image.
};

/// Scans `input` for one complete frame. On success with a full frame,
/// `*body` borrows the frame body and `*consumed` is the total bytes to
/// drop from the stream (header + body). An incomplete frame is not an
/// error: ok with `*consumed == 0`. Once the length prefix is in,
/// `*frame_bytes` (when given) is the whole frame's size, header
/// included, so a reader can make room for it at once. A length prefix
/// of zero or beyond `max_frame_bytes` is a fatal protocol violation
/// (kInvalidArgument) — the connection cannot be resynchronized and must
/// be closed.
Status SplitFrame(ByteSpan input, uint32_t max_frame_bytes, ByteSpan* body,
                  size_t* consumed, size_t* frame_bytes = nullptr);

/// Appends one framed request to `out` (length prefix included).
void EncodeRequest(const Request& request, std::vector<uint8_t>* out);

/// Decodes a request body (the frame body, prefix already stripped).
/// UPDATE items are unpacked into `*items_scratch` (cleared first) and
/// `out->items` points into it; a timestamp column, when present, is
/// unpacked into `*timestamps_scratch` the same way; `out->blob` borrows
/// `body`. Unknown opcodes decode the header then return kUnimplemented
/// with `out->id` filled, so the server can still answer with a typed
/// error frame; every other failure is kCorruption/kInvalidArgument and
/// the caller should drop the connection.
Status DecodeRequest(ByteSpan body, Request* out,
                     std::vector<uint64_t>* items_scratch,
                     std::vector<uint64_t>* timestamps_scratch);

/// Appends one framed response to `out` (length prefix included).
void EncodeResponse(const Response& response, std::vector<uint8_t>* out);

/// Decodes a response body. `out->blob` borrows `body`.
Status DecodeResponse(ByteSpan body, Response* out);

}  // namespace server
}  // namespace gems

#endif  // GEMS_SERVER_PROTOCOL_H_
