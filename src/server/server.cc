#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <unordered_map>
#include <utility>

namespace gems {
namespace server {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

/// One accepted connection, owned by exactly one event loop.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  int fd;
  /// Bytes read but not yet consumed as frames. `read_pos` marks the
  /// consumed prefix; compacted once the parser catches up, so steady
  /// streams never memmove per frame.
  std::vector<uint8_t> read_buffer;
  size_t read_pos = 0;
  /// Encoded responses not yet accepted by the socket.
  std::vector<uint8_t> write_buffer;
  size_t write_pos = 0;
  bool want_write = false;
  /// Reused per-request scratch: decoded UPDATE items (plus an optional
  /// timestamp column) and checkpoint payloads, so a busy connection
  /// allocates only on high-water growth.
  std::vector<uint64_t> items_scratch;
  std::vector<uint64_t> timestamps_scratch;
  std::vector<uint8_t> arena;
};

}  // namespace

struct Server::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> connections;

  ~Loop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

void HandleRequest(Keyspace& keyspace, const Request& request,
                   Response* response, std::vector<uint8_t>* arena) {
  *response = Response{};
  response->opcode = request.opcode;
  response->id = request.id;
  Status status = Status::Ok();
  switch (request.opcode) {
    case Opcode::kPing:
      break;
    case Opcode::kCreate: {
      TimedSketchParams params;
      if (request.has_timed_params) {
        params.pane_width = request.pane_width;
        params.num_panes = request.num_panes;
        params.half_life = request.half_life;
      }
      status = keyspace.Create(request.key, request.sketch_type, params);
      break;
    }
    case Opcode::kDrop:
      status = keyspace.Drop(request.key);
      break;
    case Opcode::kList: {
      Keyspace::ListResult list =
          keyspace.List(request.prefix, request.limit);
      response->total_keys = list.total;
      response->entries = std::move(list.entries);
      break;
    }
    case Opcode::kUpdate:
      status =
          keyspace.Update(request.key, request.items, request.timestamps);
      break;
    case Opcode::kMerge:
      status = keyspace.Merge(request.key, request.blob,
                              (request.flags & kFlagTrustedMerge) != 0);
      break;
    case Opcode::kQuery: {
      Result<QueryResult> query = keyspace.Query(
          request.key, request.has_item, request.item, request.confidence);
      if (query.ok()) {
        response->query = std::move(query).value();
      } else {
        status = query.status();
      }
      break;
    }
    case Opcode::kCheckpoint: {
      arena->clear();
      ByteSink sink(arena);
      status = keyspace.Checkpoint(sink);
      if (status.ok()) response->blob = ByteSpan(*arena);
      break;
    }
    case Opcode::kRestore:
      status = keyspace.Restore(request.blob);
      break;
  }
  response->code = status.code();
  response->message = std::string(status.message());
}

Server::Server(Keyspace* keyspace, ServerOptions options)
    : keyspace_(keyspace), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire) || listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.num_threads == 0) options_.num_threads = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Stop();
    return Status::InvalidArgument("unparseable listen address '" +
                                   options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Errno("bind");
    Stop();
    return s;
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    Status s = Errno("listen");
    Stop();
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    Status s = Errno("getsockname");
    Stop();
    return s;
  }
  port_ = ntohs(addr.sin_port);
  if (Status s = SetNonBlocking(listen_fd_); !s.ok()) {
    Stop();
    return s;
  }

  loops_.clear();
  for (size_t i = 0; i < options_.num_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      Status s = Errno("epoll_create1");
      Stop();
      return s;
    }
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->wake_fd < 0) {
      Status s = Errno("eventfd");
      Stop();
      return s;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      Status s = Errno("epoll_ctl(listen)");
      Stop();
      return s;
    }
    ev = epoll_event{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) < 0) {
      Status s = Errno("epoll_ctl(wake)");
      Stop();
      return s;
    }
    loops_.push_back(std::move(loop));
  }

  running_.store(true, std::memory_order_release);
  threads_.reserve(loops_.size());
  for (std::unique_ptr<Loop>& loop : loops_) {
    threads_.emplace_back([this, &loop] { RunLoop(*loop); });
  }
  return Status::Ok();
}

void Server::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (std::unique_ptr<Loop>& loop : loops_) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(loop->wake_fd, &one, sizeof(one));
    }
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::RunLoop(Loop& loop) {
  // Everything below runs on this loop's thread only; `loop` state needs
  // no synchronization.
  auto close_connection = [&loop](int fd) { loop.connections.erase(fd); };

  auto arm = [&loop](Connection& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  // Flushes as much pending output as the socket takes. Returns false if
  // the connection died.
  auto flush_writes = [&arm](Connection& conn) {
    while (conn.write_pos < conn.write_buffer.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.write_buffer.data() + conn.write_pos,
                 conn.write_buffer.size() - conn.write_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.write_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) {
          conn.want_write = true;
          arm(conn);
        }
        return true;
      }
      return false;  // Peer went away.
    }
    conn.write_buffer.clear();
    conn.write_pos = 0;
    if (conn.want_write) {
      conn.want_write = false;
      arm(conn);
    }
    return true;
  };

  // Splits and serves every complete frame in the read buffer. Responses
  // collect in the write buffer and go out in one send after the burst,
  // or as soon as kReadChunk bytes are pending. Returns false on a
  // protocol violation (connection must close, after a last flush of the
  // responses to the frames before it).
  auto serve_frames = [this, &flush_writes](Connection& conn) {
    for (;;) {
      const ByteSpan pending(conn.read_buffer.data() + conn.read_pos,
                             conn.read_buffer.size() - conn.read_pos);
      ByteSpan body;
      size_t consumed = 0;
      if (!SplitFrame(pending, options_.max_frame_bytes, &body, &consumed)
               .ok()) {
        flush_writes(conn);
        return false;
      }
      if (consumed == 0) break;  // Incomplete frame: wait for more bytes.
      Request request;
      const Status decoded = DecodeRequest(
          body, &request, &conn.items_scratch, &conn.timestamps_scratch);
      Response response;
      if (decoded.ok()) {
        HandleRequest(*keyspace_, request, &response, &conn.arena);
      } else if (decoded.code() == StatusCode::kUnimplemented) {
        // Well-framed but unknown opcode: answer with the typed error so
        // newer clients degrade gracefully against older daemons.
        response.opcode = Opcode::kPing;
        response.id = request.id;
        response.code = decoded.code();
        response.message = std::string(decoded.message());
      } else {
        flush_writes(conn);
        return false;  // Undecodable body: drop the connection.
      }
      EncodeResponse(response, &conn.write_buffer);
      conn.read_pos += consumed;
      if (conn.write_buffer.size() - conn.write_pos >= kReadChunk &&
          !flush_writes(conn)) {
        return false;
      }
    }
    if (!flush_writes(conn)) return false;
    // Compact once parsed-out; cheap because it only runs when the
    // buffer is fully or mostly drained.
    if (conn.read_pos == conn.read_buffer.size()) {
      conn.read_buffer.clear();
      conn.read_pos = 0;
    } else if (conn.read_pos > (64u << 10)) {
      conn.read_buffer.erase(conn.read_buffer.begin(),
                             conn.read_buffer.begin() +
                                 static_cast<ptrdiff_t>(conn.read_pos));
      conn.read_pos = 0;
    }
    return true;
  };

  auto on_readable = [this, &serve_frames](Connection& conn) {
    for (;;) {
      const size_t old_size = conn.read_buffer.size();
      conn.read_buffer.resize(old_size + kReadChunk);
      const ssize_t n =
          ::recv(conn.fd, conn.read_buffer.data() + old_size, kReadChunk, 0);
      if (n > 0) {
        conn.read_buffer.resize(old_size + static_cast<size_t>(n));
        if (!serve_frames(conn)) return false;
        if (static_cast<size_t>(n) < kReadChunk) return true;
        continue;
      }
      conn.read_buffer.resize(old_size);
      if (n == 0) return false;  // Orderly shutdown from the peer.
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
  };

  std::vector<epoll_event> events(64);
  while (running_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(loop.epoll_fd, events.data(),
                     static_cast<int>(events.size()), /*timeout_ms=*/500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == loop.wake_fd) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &drained, sizeof(drained));
        continue;
      }
      if (ev.data.fd == listen_fd_) {
        for (;;) {
          const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;  // EAGAIN: another loop got it, or drained.
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          auto conn = std::make_unique<Connection>(fd);
          epoll_event cev{};
          cev.events = EPOLLIN;
          cev.data.fd = fd;
          if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &cev) == 0) {
            loop.connections.emplace(fd, std::move(conn));
          }
        }
        continue;
      }
      auto it = loop.connections.find(ev.data.fd);
      if (it == loop.connections.end()) continue;
      Connection& conn = *it->second;
      bool alive = true;
      if (ev.events & (EPOLLHUP | EPOLLERR)) alive = false;
      if (alive && (ev.events & EPOLLOUT)) alive = flush_writes(conn);
      if (alive && (ev.events & EPOLLIN)) alive = on_readable(conn);
      if (!alive) close_connection(ev.data.fd);
    }
  }
  loop.connections.clear();
}

}  // namespace server
}  // namespace gems
