#include "server/protocol.h"

#include <cmath>


namespace gems {
namespace server {

namespace {

constexpr size_t kFramePrefixSize = 4;

/// Shared request/response header tail: everything after the version
/// byte that both directions carry.
Status DecodeCommonHeader(ByteReader& reader, uint8_t* version,
                          uint8_t* opcode_raw, uint8_t* flags, uint64_t* id) {
  if (Status s = reader.GetU8(version); !s.ok()) return s;
  if (Status s = reader.GetU8(opcode_raw); !s.ok()) return s;
  if (Status s = reader.GetU8(flags); !s.ok()) return s;
  if (Status s = reader.GetU64(id); !s.ok()) return s;
  if (*version != kProtocolVersion) {
    return Status::Corruption("unsupported gemsd protocol version " +
                              std::to_string(int{*version}));
  }
  return Status::Ok();
}

Status RejectTrailing(const ByteReader& reader, const char* what) {
  if (!reader.AtEnd()) {
    return Status::Corruption(std::string("trailing bytes after ") + what);
  }
  return Status::Ok();
}

}  // namespace

bool IsKnownOpcode(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kPing) &&
         raw <= static_cast<uint8_t>(Opcode::kRestore);
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kCreate: return "create";
    case Opcode::kDrop: return "drop";
    case Opcode::kList: return "list";
    case Opcode::kUpdate: return "update";
    case Opcode::kMerge: return "merge";
    case Opcode::kQuery: return "query";
    case Opcode::kCheckpoint: return "checkpoint";
    case Opcode::kRestore: return "restore";
  }
  return "unknown";
}

Status SplitFrame(ByteSpan input, uint32_t max_frame_bytes, ByteSpan* body,
                  size_t* consumed, size_t* frame_bytes) {
  *consumed = 0;
  if (input.size() < kFramePrefixSize) return Status::Ok();
  const uint32_t length = LoadLittleEndian<uint32_t>(input.data());
  if (length == 0) {
    return Status::InvalidArgument("zero-length gemsd frame");
  }
  if (length > max_frame_bytes) {
    return Status::InvalidArgument(
        "gemsd frame of " + std::to_string(length) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte cap");
  }
  if (frame_bytes != nullptr) *frame_bytes = kFramePrefixSize + length;
  if (input.size() < kFramePrefixSize + length) return Status::Ok();
  *body = input.subspan(kFramePrefixSize, length);
  *consumed = kFramePrefixSize + length;
  return Status::Ok();
}

void EncodeRequest(const Request& request, std::vector<uint8_t>* out) {
  ByteSink sink(out);
  const size_t prefix_at = sink.size();
  sink.PutU32(0);  // Length, patched below.
  sink.PutU8(request.version);
  sink.PutU8(static_cast<uint8_t>(request.opcode));
  sink.PutU8(request.flags);
  sink.PutU64(request.id);
  switch (request.opcode) {
    case Opcode::kPing:
    case Opcode::kCheckpoint:
      break;
    case Opcode::kCreate:
      sink.PutString(request.key);
      sink.PutString(request.sketch_type);
      // Window/decay parameters are a tail extension: absent entirely for
      // an untimed create (byte-identical to the pre-time protocol, so an
      // old daemon still serves it); readers treat an absent tail as "no
      // timed params".
      if (request.has_timed_params) {
        sink.PutU8(1);
        sink.PutU64(request.pane_width);
        sink.PutU32(request.num_panes);
        sink.PutDouble(request.half_life);
      }
      break;
    case Opcode::kDrop:
      sink.PutString(request.key);
      break;
    case Opcode::kList:
      sink.PutString(request.prefix);
      sink.PutU32(request.limit);
      break;
    case Opcode::kUpdate:
      sink.PutString(request.key);
      sink.PutU32(static_cast<uint32_t>(request.items.size()));
      sink.PutU64s(request.items);
      // Timestamp column, tail extension like kCreate's params: absent
      // entirely for an untimed update.
      if (!request.timestamps.empty()) {
        sink.PutU8(1);
        sink.PutU64s(request.timestamps);
      }
      break;
    case Opcode::kMerge:
      sink.PutString(request.key);
      sink.PutBytes(request.blob.data(), request.blob.size());
      break;
    case Opcode::kQuery:
      sink.PutString(request.key);
      sink.PutU8(request.has_item ? 1 : 0);
      sink.PutU64(request.item);
      sink.PutDouble(request.confidence);
      break;
    case Opcode::kRestore:
      sink.PutBytes(request.blob.data(), request.blob.size());
      break;
  }
  sink.PatchU32(prefix_at,
                static_cast<uint32_t>(sink.size() - prefix_at -
                                      kFramePrefixSize));
}

Status DecodeRequest(ByteSpan body, Request* out,
                     std::vector<uint64_t>* items_scratch,
                     std::vector<uint64_t>* timestamps_scratch) {
  *out = Request{};
  items_scratch->clear();
  timestamps_scratch->clear();
  ByteReader reader(body);
  uint8_t opcode_raw = 0;
  if (Status s = DecodeCommonHeader(reader, &out->version, &opcode_raw,
                                    &out->flags, &out->id);
      !s.ok()) {
    return s;
  }
  if (!IsKnownOpcode(opcode_raw)) {
    return Status::Unimplemented("unknown gemsd opcode " +
                                 std::to_string(int{opcode_raw}));
  }
  out->opcode = static_cast<Opcode>(opcode_raw);
  switch (out->opcode) {
    case Opcode::kPing:
    case Opcode::kCheckpoint:
      break;
    case Opcode::kCreate: {
      if (Status s = reader.GetString(&out->key); !s.ok()) return s;
      if (Status s = reader.GetString(&out->sketch_type); !s.ok()) return s;
      if (reader.AtEnd()) break;  // Old-style frame: no timed params tail.
      uint8_t has_params = 0;
      if (Status s = reader.GetU8(&has_params); !s.ok()) return s;
      if (has_params > 1) {
        return Status::Corruption("create timed-params flag must be 0 or 1");
      }
      if (has_params != 0) {
        out->has_timed_params = true;
        if (Status s = reader.GetU64(&out->pane_width); !s.ok()) return s;
        if (Status s = reader.GetU32(&out->num_panes); !s.ok()) return s;
        if (Status s = reader.GetDouble(&out->half_life); !s.ok()) return s;
        if (!std::isfinite(out->half_life) || out->half_life < 0.0) {
          return Status::Corruption(
              "create half_life must be finite and >= 0");
        }
      }
      break;
    }
    case Opcode::kDrop:
      if (Status s = reader.GetString(&out->key); !s.ok()) return s;
      break;
    case Opcode::kList:
      if (Status s = reader.GetString(&out->prefix); !s.ok()) return s;
      if (Status s = reader.GetU32(&out->limit); !s.ok()) return s;
      break;
    case Opcode::kUpdate: {
      if (Status s = reader.GetString(&out->key); !s.ok()) return s;
      uint32_t count = 0;
      if (Status s = reader.GetU32(&count); !s.ok()) return s;
      if (Status s = reader.GetU64s(count, items_scratch); !s.ok()) return s;
      out->items = std::span<const uint64_t>(*items_scratch);
      if (reader.AtEnd()) break;  // Old-style frame: no timestamp tail.
      uint8_t has_timestamps = 0;
      if (Status s = reader.GetU8(&has_timestamps); !s.ok()) return s;
      if (has_timestamps > 1) {
        return Status::Corruption("update timestamp flag must be 0 or 1");
      }
      if (has_timestamps != 0) {
        if (Status s = reader.GetU64s(count, timestamps_scratch); !s.ok()) {
          return s;
        }
        out->timestamps = std::span<const uint64_t>(*timestamps_scratch);
      }
      break;
    }
    case Opcode::kMerge:
      if (Status s = reader.GetString(&out->key); !s.ok()) return s;
      if (Status s = reader.GetBytesView(&out->blob); !s.ok()) return s;
      break;
    case Opcode::kQuery: {
      if (Status s = reader.GetString(&out->key); !s.ok()) return s;
      uint8_t has_item = 0;
      if (Status s = reader.GetU8(&has_item); !s.ok()) return s;
      if (has_item > 1) {
        return Status::Corruption("query has_item flag must be 0 or 1");
      }
      out->has_item = has_item != 0;
      if (Status s = reader.GetU64(&out->item); !s.ok()) return s;
      if (Status s = reader.GetDouble(&out->confidence); !s.ok()) return s;
      if (!(out->confidence > 0.0 && out->confidence < 1.0)) {
        return Status::Corruption("query confidence outside (0, 1)");
      }
      break;
    }
    case Opcode::kRestore:
      if (Status s = reader.GetBytesView(&out->blob); !s.ok()) return s;
      break;
  }
  return RejectTrailing(reader, "gemsd request");
}

void EncodeResponse(const Response& response, std::vector<uint8_t>* out) {
  ByteSink sink(out);
  const size_t prefix_at = sink.size();
  sink.PutU32(0);  // Length, patched below.
  sink.PutU8(response.version);
  sink.PutU8(static_cast<uint8_t>(response.opcode));
  sink.PutU8(0);  // Flags, reserved.
  sink.PutU64(response.id);
  sink.PutU8(static_cast<uint8_t>(response.code));
  sink.PutString(response.message);
  if (response.code == StatusCode::kOk) {
    switch (response.opcode) {
      case Opcode::kQuery: {
        const QueryResult& q = response.query;
        sink.PutU8(q.has_estimate ? 1 : 0);
        sink.PutDouble(q.estimate.value);
        sink.PutDouble(q.estimate.lower);
        sink.PutDouble(q.estimate.upper);
        sink.PutDouble(q.estimate.confidence);
        sink.PutString(q.summary);
        sink.PutU64(q.epoch);
        break;
      }
      case Opcode::kList:
        sink.PutU64(response.total_keys);
        sink.PutU32(static_cast<uint32_t>(response.entries.size()));
        for (const ListEntry& entry : response.entries) {
          sink.PutString(entry.key);
          sink.PutString(entry.type);
        }
        break;
      case Opcode::kCheckpoint:
        sink.PutBytes(response.blob.data(), response.blob.size());
        break;
      default:
        break;
    }
  }
  sink.PatchU32(prefix_at,
                static_cast<uint32_t>(sink.size() - prefix_at -
                                      kFramePrefixSize));
}

Status DecodeResponse(ByteSpan body, Response* out) {
  *out = Response{};
  ByteReader reader(body);
  uint8_t opcode_raw = 0;
  uint8_t flags = 0;
  if (Status s = DecodeCommonHeader(reader, &out->version, &opcode_raw,
                                    &flags, &out->id);
      !s.ok()) {
    return s;
  }
  if (!IsKnownOpcode(opcode_raw)) {
    return Status::Corruption("unknown opcode in gemsd response");
  }
  out->opcode = static_cast<Opcode>(opcode_raw);
  uint8_t code_raw = 0;
  if (Status s = reader.GetU8(&code_raw); !s.ok()) return s;
  out->code = StatusCodeFromWire(code_raw);
  if (Status s = reader.GetString(&out->message); !s.ok()) return s;
  if (out->code == StatusCode::kOk) {
    switch (out->opcode) {
      case Opcode::kQuery: {
        QueryResult& q = out->query;
        uint8_t has_estimate = 0;
        if (Status s = reader.GetU8(&has_estimate); !s.ok()) return s;
        if (has_estimate > 1) {
          return Status::Corruption("query has_estimate flag must be 0 or 1");
        }
        q.has_estimate = has_estimate != 0;
        if (Status s = reader.GetDouble(&q.estimate.value); !s.ok()) return s;
        if (Status s = reader.GetDouble(&q.estimate.lower); !s.ok()) return s;
        if (Status s = reader.GetDouble(&q.estimate.upper); !s.ok()) return s;
        if (Status s = reader.GetDouble(&q.estimate.confidence); !s.ok()) {
          return s;
        }
        if (Status s = reader.GetString(&q.summary); !s.ok()) return s;
        if (Status s = reader.GetU64(&q.epoch); !s.ok()) return s;
        break;
      }
      case Opcode::kList: {
        if (Status s = reader.GetU64(&out->total_keys); !s.ok()) return s;
        uint32_t count = 0;
        if (Status s = reader.GetU32(&count); !s.ok()) return s;
        // Two one-byte strings minimum per entry bounds hostile counts.
        if (Status s = reader.CheckColumn(count, 2); !s.ok()) return s;
        out->entries.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          ListEntry entry;
          if (Status s = reader.GetString(&entry.key); !s.ok()) return s;
          if (Status s = reader.GetString(&entry.type); !s.ok()) return s;
          out->entries.push_back(std::move(entry));
        }
        break;
      }
      case Opcode::kCheckpoint:
        if (Status s = reader.GetBytesView(&out->blob); !s.ok()) return s;
        break;
      default:
        break;
    }
  }
  return RejectTrailing(reader, "gemsd response");
}

}  // namespace server
}  // namespace gems
