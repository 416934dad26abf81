#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace gems {
namespace server {

namespace {

/// Least free space the receive buffer offers each recv(): a window of
/// responses usually arrives in one call.
constexpr size_t kRecvChunk = 64 * 1024;
/// A receive buffer larger than this is released once drained.
constexpr size_t kRecvKeep = 1 << 20;

Status Transport(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

}  // namespace

Result<GemsdClient> GemsdClient::Connect(const std::string& host,
                                         uint16_t port) {
  GemsdClient client;
  client.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (client.fd_ < 0) return Transport("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable gemsd address '" + host +
                                   "'");
  }
  if (::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Transport("connect");
  }
  const int one = 1;
  ::setsockopt(client.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return client;
}

GemsdClient::GemsdClient(GemsdClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      send_buffer_(std::move(other.send_buffer_)),
      recv_buffer_(std::move(other.recv_buffer_)),
      recv_pos_(std::exchange(other.recv_pos_, 0)),
      recv_end_(std::exchange(other.recv_end_, 0)) {}

GemsdClient& GemsdClient::operator=(GemsdClient&& other) noexcept {
  if (this != &other) {
    CloseFd();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    send_buffer_ = std::move(other.send_buffer_);
    recv_buffer_ = std::move(other.recv_buffer_);
    recv_pos_ = std::exchange(other.recv_pos_, 0);
    recv_end_ = std::exchange(other.recv_end_, 0);
  }
  return *this;
}

GemsdClient::~GemsdClient() { CloseFd(); }

void GemsdClient::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  recv_buffer_.clear();
  recv_pos_ = recv_end_ = 0;
}

Status GemsdClient::SendAll(const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseFd();
    return Transport("send");
  }
  return Status::Ok();
}

Status GemsdClient::RecvFrame(ByteSpan* body) {
  for (;;) {
    const ByteSpan pending(recv_buffer_.data() + recv_pos_,
                           recv_end_ - recv_pos_);
    size_t consumed = 0;
    size_t frame_bytes = 0;
    if (Status s = SplitFrame(pending, kDefaultMaxFrameBytes, body, &consumed,
                              &frame_bytes);
        !s.ok()) {
      CloseFd();
      return Status::Corruption("invalid gemsd frame from peer: " +
                                std::string(s.message()));
    }
    if (consumed != 0) {
      recv_pos_ += consumed;
      return Status::Ok();
    }
    // Incomplete frame. With nothing buffered, start over at the front and
    // let go of a buffer that a multi-MB frame grew.
    if (recv_pos_ == recv_end_) {
      recv_pos_ = recv_end_ = 0;
      if (recv_buffer_.size() > kRecvKeep) {
        std::vector<uint8_t>().swap(recv_buffer_);
      }
    }
    // Make room for the whole frame once its length is known, and for at
    // least a chunk more to read into, moving a partial frame to the front
    // first. The buffer then grows once per large frame, not by doubling.
    if (recv_buffer_.size() - recv_end_ < kRecvChunk ||
        recv_buffer_.size() - recv_pos_ < frame_bytes) {
      if (recv_pos_ != 0) {
        std::memmove(recv_buffer_.data(), recv_buffer_.data() + recv_pos_,
                     recv_end_ - recv_pos_);
        recv_end_ -= recv_pos_;
        recv_pos_ = 0;
      }
      recv_buffer_.resize(std::max(
          {recv_buffer_.size(), frame_bytes, recv_end_ + kRecvChunk}));
    }
    const ssize_t n = ::recv(fd_, recv_buffer_.data() + recv_end_,
                             recv_buffer_.size() - recv_end_, 0);
    if (n > 0) {
      recv_end_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseFd();
    if (n == 0) {
      return Status::Unavailable("gemsd connection closed by peer");
    }
    return Transport("recv");
  }
}

Status GemsdClient::RoundTrip(Request& request, Response* response) {
  if (fd_ < 0) return Status::Unavailable("gemsd client not connected");
  request.version = kProtocolVersion;
  request.id = next_id_++;
  send_buffer_.clear();
  EncodeRequest(request, &send_buffer_);
  if (Status s = SendAll(send_buffer_.data(), send_buffer_.size()); !s.ok()) {
    return s;
  }
  ByteSpan body;
  if (Status s = RecvFrame(&body); !s.ok()) return s;
  if (Status s = DecodeResponse(body, response); !s.ok()) {
    CloseFd();
    return s;
  }
  if (response->id != request.id) {
    CloseFd();
    return Status::Corruption("gemsd response id mismatch");
  }
  return Status::FromCode(response->code, response->message);
}

Status GemsdClient::Pipeline(std::span<Request> requests,
                             std::vector<Status>* statuses) {
  statuses->clear();
  if (requests.empty()) return Status::Ok();
  if (fd_ < 0) return Status::Unavailable("gemsd client not connected");
  // Phase 1: one contiguous send of every frame in the window. The ids are
  // consecutive, so the in-order drain below can pair responses without a
  // map.
  send_buffer_.clear();
  for (Request& request : requests) {
    request.version = kProtocolVersion;
    request.id = next_id_++;
    EncodeRequest(request, &send_buffer_);
  }
  if (Status s = SendAll(send_buffer_.data(), send_buffer_.size()); !s.ok()) {
    return s;
  }
  // Phase 2: drain exactly one response per request, in id order (the
  // daemon serves one connection serially, so responses cannot reorder).
  statuses->reserve(requests.size());
  for (const Request& request : requests) {
    ByteSpan body;
    if (Status s = RecvFrame(&body); !s.ok()) return s;
    Response response;
    if (Status s = DecodeResponse(body, &response); !s.ok()) {
      CloseFd();
      return s;
    }
    if (response.id != request.id) {
      CloseFd();
      return Status::Corruption("gemsd response id mismatch");
    }
    statuses->push_back(Status::FromCode(response.code, response.message));
  }
  return Status::Ok();
}

Status GemsdClient::Ping() {
  Request request;
  request.opcode = Opcode::kPing;
  Response response;
  return RoundTrip(request, &response);
}

Status GemsdClient::Create(const std::string& key,
                           const std::string& sketch_type) {
  Request request;
  request.opcode = Opcode::kCreate;
  request.key = key;
  request.sketch_type = sketch_type;
  Response response;
  return RoundTrip(request, &response);
}

Status GemsdClient::CreateTimed(const std::string& key,
                                const std::string& sketch_type,
                                uint64_t pane_width, uint32_t num_panes,
                                double half_life) {
  Request request;
  request.opcode = Opcode::kCreate;
  request.key = key;
  request.sketch_type = sketch_type;
  request.has_timed_params = true;
  request.pane_width = pane_width;
  request.num_panes = num_panes;
  request.half_life = half_life;
  Response response;
  return RoundTrip(request, &response);
}

Status GemsdClient::Drop(const std::string& key) {
  Request request;
  request.opcode = Opcode::kDrop;
  request.key = key;
  Response response;
  return RoundTrip(request, &response);
}

Result<GemsdClient::ListResult> GemsdClient::List(const std::string& prefix,
                                                  uint32_t limit) {
  Request request;
  request.opcode = Opcode::kList;
  request.prefix = prefix;
  request.limit = limit;
  Response response;
  if (Status s = RoundTrip(request, &response); !s.ok()) return s;
  ListResult result;
  result.total = response.total_keys;
  result.entries = std::move(response.entries);
  return result;
}

Status GemsdClient::Update(const std::string& key,
                           std::span<const uint64_t> items) {
  Request request;
  request.opcode = Opcode::kUpdate;
  request.key = key;
  request.items = items;
  Response response;
  return RoundTrip(request, &response);
}

Status GemsdClient::UpdateTimed(const std::string& key,
                                std::span<const uint64_t> items,
                                std::span<const uint64_t> timestamps) {
  if (timestamps.size() != items.size()) {
    return Status::InvalidArgument(
        "timestamp column must parallel the item column");
  }
  Request request;
  request.opcode = Opcode::kUpdate;
  request.key = key;
  request.items = items;
  request.timestamps = timestamps;
  Response response;
  return RoundTrip(request, &response);
}

Status GemsdClient::Merge(const std::string& key, ByteSpan envelope,
                          bool trusted) {
  Request request;
  request.opcode = Opcode::kMerge;
  request.key = key;
  request.blob = envelope;
  if (trusted) request.flags |= kFlagTrustedMerge;
  Response response;
  return RoundTrip(request, &response);
}

Result<QueryResult> GemsdClient::Query(const std::string& key,
                                       double confidence) {
  Request request;
  request.opcode = Opcode::kQuery;
  request.key = key;
  request.confidence = confidence;
  Response response;
  if (Status s = RoundTrip(request, &response); !s.ok()) return s;
  return std::move(response.query);
}

Result<QueryResult> GemsdClient::QueryItem(const std::string& key,
                                           uint64_t item,
                                           double confidence) {
  Request request;
  request.opcode = Opcode::kQuery;
  request.key = key;
  request.has_item = true;
  request.item = item;
  request.confidence = confidence;
  Response response;
  if (Status s = RoundTrip(request, &response); !s.ok()) return s;
  return std::move(response.query);
}

Result<std::vector<uint8_t>> GemsdClient::Checkpoint() {
  Request request;
  request.opcode = Opcode::kCheckpoint;
  Response response;
  if (Status s = RoundTrip(request, &response); !s.ok()) return s;
  return std::vector<uint8_t>(response.blob.begin(), response.blob.end());
}

Status GemsdClient::Restore(ByteSpan image) {
  Request request;
  request.opcode = Opcode::kRestore;
  request.blob = image;
  Response response;
  return RoundTrip(request, &response);
}

}  // namespace server
}  // namespace gems
