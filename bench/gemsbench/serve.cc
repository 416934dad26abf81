// serve_write and serve_read: the keyed sketch service. The real gemsd
// binary is spawned with 2 event loops and driven over loopback TCP by 2
// client connections, one thread each and one per loop, so at most 4
// threads are busy on a 4-core host. Both workloads share the daemon, the
// key table, the set-up (every key created, then preloaded until dense)
// and the request stream; they differ in the mix and in how load is
// offered:
//
//   serve_write  closed loop, windows of 16 pipelined requests, 95%
//                UPDATE (64 items) / 5% QUERY, one cycle of windows
//                repeated; each connection's client thread and gemsd loop
//                share one CPU, and the CPU changes every 100 ms
//   serve_read   open loop at 10,000 req/s per connection, one request at
//                a time, 90% QUERY / 10% UPDATE
//
// Every request is a pure function of (--seed, connection, index), so
// after the run the benchmark replays the acknowledged updates into
// in-process sketches and checks that the daemon's checkpoint holds
// byte-identical state for every touched key.

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/registry.h"
#include "distributed/concurrent/concurrent_any.h"
#include "server/client.h"
#include "server/keyspace.h"
#include "server/protocol.h"
#include "workloads.h"

namespace gemsbench {
namespace {

using gems::Status;
using gems::server::GemsdClient;
using gems::server::Opcode;
using gems::server::Request;
using gems::server::Response;

constexpr size_t kConnections = 2;
constexpr size_t kBatch = 64;
/// Count-Min items are skewed over this many distinct values, so a
/// QueryItem probe usually hits an item the key has seen.
constexpr double kCmUniverse = 65536.0;
/// Stream number of the set-up preload (connections use 0..).
constexpr uint64_t kPreloadStream = kConnections;
/// Items in the one preload UPDATE each key gets during set-up: more than
/// the 2,048 sparse entries at which a precision-14 hllpp key turns dense,
/// so every key is dense before timing starts. The measured phase then
/// does the same work from start to end, and the daemon's memory no
/// longer grows with the number of requests served.
constexpr size_t kPreloadItems = 4096;
/// serve_write moves each connection's client thread and gemsd loop to the
/// next CPU this often.
constexpr int64_t kCpuSlotNs = 100'000'000;

struct Shape {
  uint32_t hll_keys;
  uint32_t cm_keys;
  double update_share;   // Fraction of requests that are UPDATEs.
  double rate_per_conn;  // Offered requests/s per connection; 0 = closed loop.
  size_t window;         // Requests per pipelined send.
  size_t cycle;          // Windows per repeated request cycle; 0 = none.
  double warmup_s;
  int setups;            // Set-ups timed per run; setup_s is their median.
  int checkpoints;       // CHECKPOINT round trips timed per run.
};

// 512 hllpp and 32 count_min keys: 8 MB of dense HLL++ registers and
// 3.5 MB of Count-Min counters, far beyond one core's 2 MiB L2, while
// set-up stays near a quarter of a second and the daemon near 110 MB.
// serve_write sends 16 requests per window: one at a time, loopback TCP
// and thread wake-ups took about 85% of each round trip and varied with
// the host's load, while the window puts the daemon's time into decode,
// keyspace, fold/publish and the sketch kernels that the workload is for.
// Its cycle of 512 windows (8,192 requests, every key touched) repeats
// about 130 times in a 20-s run on the seed code, for FastestRepeats.
Shape ShapeFor(bool read_mix, bool smoke) {
  Shape shape{512, 32, 0.95, 0.0, 16, 512, 1.0, 7, 3};
  if (read_mix) {
    shape.update_share = 0.10;
    shape.rate_per_conn = 10000.0;
    shape.window = 1;
    shape.cycle = 0;
  }
  if (smoke) {
    shape.hll_keys = 64;
    shape.cm_keys = 4;
    shape.warmup_s = 0.2;
    shape.setups = 1;
    shape.checkpoints = 1;
    if (read_mix) shape.rate_per_conn = 2000.0;
    if (!read_mix) shape.cycle = 32;
  }
  return shape;
}

/// One request, as drawn from a RequestStream. Update items go to a
/// caller-owned vector.
struct Op {
  uint32_t key = 0;  // Index into the key table.
  bool cm = false;
  bool update = false;
  uint64_t probe = 0;  // QueryItem probe for Count-Min reads.
};

/// The deterministic request sequence of one connection (or of the
/// preload). The live client loop and the in-process replay draw from
/// identically seeded streams, so they see identical requests. With a
/// cycle, Next() starts the sequence over every shape.cycle windows.
class RequestStream {
 public:
  RequestStream(uint64_t seed, const Shape& shape)
      : seed_(seed), rng_(seed), shape_(shape) {}

  void Next(Op* op, std::vector<uint64_t>* items) {
    if (shape_.cycle != 0 && ++drawn_ % (shape_.cycle * shape_.window) == 0) {
      rng_ = gems::Rng(seed_);
    }
    // One request in ten targets a Count-Min key; within each family keys
    // are drawn with squared-uniform skew, so low ids are hot while the
    // tail is still touched.
    op->cm = rng_.NextBounded(10) == 0;
    const uint32_t n = op->cm ? shape_.cm_keys : shape_.hll_keys;
    const double u = rng_.NextDouble();
    op->key = std::min(static_cast<uint32_t>(u * u * n), n - 1) +
              (op->cm ? shape_.hll_keys : 0);
    op->update = rng_.NextDouble() < shape_.update_share;
    if (op->update) {
      Items(op->cm, kBatch, items);
    } else if (op->cm) {
      op->probe = CmItem();
    }
  }

  /// The set-up UPDATE of key `key`, kPreloadItems items.
  void Preload(uint32_t key, Op* op, std::vector<uint64_t>* items) {
    *op = Op{key, key >= shape_.hll_keys, true, 0};
    Items(op->cm, kPreloadItems, items);
  }

 private:
  void Items(bool cm, size_t n, std::vector<uint64_t>* items) {
    items->resize(n);
    for (uint64_t& item : *items) item = cm ? CmItem() : rng_.NextU64();
  }

  uint64_t CmItem() {
    const double u = rng_.NextDouble();
    return gems::Mix64(static_cast<uint64_t>(u * u * kCmUniverse));
  }

  uint64_t seed_;
  gems::Rng rng_;
  Shape shape_;
  uint64_t drawn_ = 0;
};

std::vector<std::string> KeyTable(const Shape& shape) {
  std::vector<std::string> keys;
  char buf[32];
  for (uint32_t i = 0; i < shape.hll_keys; ++i) {
    std::snprintf(buf, sizeof(buf), "h%06u", i);
    keys.push_back(buf);
  }
  for (uint32_t i = 0; i < shape.cm_keys; ++i) {
    std::snprintf(buf, sizeof(buf), "c%04u", i);
    keys.push_back(buf);
  }
  return keys;
}

const char* KeyType(const Shape& shape, uint32_t key) {
  return key < shape.hll_keys ? "hllpp" : "count_min";
}

/// A gemsd child process. The child is killed if this process dies, and
/// Stop() (also run by the destructor) waits until it has exited.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Spawn(const std::string& path) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return Status::Unavailable("pipe2");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::Unavailable("fork");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      const char* argv[] = {path.c_str(), "--host=127.0.0.1", "--port=0",
                            "--threads=2", "--shards=256", nullptr};
      ::execv(path.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // gemsd prints "gemsd listening on 127.0.0.1:<port> (...)" once bound.
    std::string line;
    const int64_t deadline = NowNs() + 10'000'000'000;
    while (line.find('\n') == std::string::npos) {
      const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0) return Status::Unavailable("gemsd did not start");
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return Status::Unavailable("gemsd exited before listening");
      line.append(buf, static_cast<size_t>(n));
    }
    const size_t at = line.find("127.0.0.1:");
    if (at == std::string::npos) {
      return Status::Unavailable("unexpected gemsd banner: " + line);
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + at + 10,
                                               nullptr, 10));
    return Status::Ok();
  }

  /// SIGTERM, then SIGKILL after 10 s. True if gemsd exited with code 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) ::usleep(10'000);
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::close(out_fd_);  // Held open until exit so gemsd's last line cannot SIGPIPE it.
    out_fd_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

Status PipelineAll(GemsdClient& client, std::vector<Request>& requests) {
  std::vector<Status> statuses;
  if (Status s = client.Pipeline(requests, &statuses); !s.ok()) return s;
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

/// The wire request for `op`; `items` must outlive it.
Request ToRequest(const Op& op, const std::string& key,
                  const std::vector<uint64_t>& items) {
  Request request;
  request.opcode = op.update ? Opcode::kUpdate : Opcode::kQuery;
  request.key = key;
  if (op.update) request.items = items;
  request.has_item = !op.update && op.cm;
  request.item = op.probe;
  return request;
}

/// Spawns gemsd, creates every key, then preloads each key with one
/// UPDATE; both steps pipelined.
Status SetUp(const Options& options, const Shape& shape,
             const std::vector<std::string>& keys, Daemon* daemon) {
  if (Status s = daemon->Spawn(options.gemsd); !s.ok()) return s;
  gems::Result<GemsdClient> client =
      GemsdClient::Connect("127.0.0.1", daemon->port());
  if (!client.ok()) return client.status();
  std::vector<Request> requests;
  for (uint32_t k = 0; k < keys.size(); ++k) {
    Request request;
    request.opcode = Opcode::kCreate;
    request.key = keys[k];
    request.sketch_type = KeyType(shape, k);
    requests.push_back(std::move(request));
    if (requests.size() == 1024 || k + 1 == keys.size()) {
      if (Status s = PipelineAll(client.value(), requests); !s.ok()) return s;
      requests.clear();
    }
  }
  RequestStream preload(DeriveSeed(options.seed, kPreloadStream), shape);
  constexpr size_t kWindow = 64;
  std::vector<std::vector<uint64_t>> items(kWindow);
  Op op;
  for (uint32_t k = 0; k < keys.size(); ++k) {
    preload.Preload(k, &op, &items[requests.size()]);
    requests.push_back(ToRequest(op, keys[k], items[requests.size()]));
    if (requests.size() == kWindow || k + 1 == keys.size()) {
      if (Status s = PipelineAll(client.value(), requests); !s.ok()) return s;
      requests.clear();
    }
  }
  return Status::Ok();
}

struct Sample {
  int64_t done_ns;
  float us;
};

struct ConnResult {
  uint64_t issued = 0;  // Requests sent, warm-up included (the replay count).
  uint64_t failed = 0;
  std::string error;
  std::vector<Sample> updates;  // Measured phase only.
  std::vector<Sample> queries;
  std::vector<double> window_us;  // Closed loop: measured round trips.
  std::vector<double> lag_us;     // Open loop: send time minus due time.
};

/// When and where load is offered; shared by the connection threads.
/// Requests due (open loop) or sent (closed loop) before `warm_end_ns` are
/// warm-up; none is sent from `end_ns` on. With `cpus`, connection c's
/// client thread and its gemsd loop `loops[c]` run on one CPU together,
/// the next one in `cpus` every kCpuSlotNs, connections spread apart.
struct Load {
  int64_t start_ns = 0;
  int64_t warm_end_ns = 0;
  int64_t end_ns = 0;
  uint64_t run_span = 0;
  std::vector<int> cpus;
  std::vector<pid_t> loops;
};

uint64_t RequestId(uint64_t stream, uint64_t index) {
  return ((stream + 1) << 40) | index;
}

/// Spins until `due_ns`, yielding the core to anything runnable. Sleeping
/// instead added the timer's wake-up jitter to every open-loop latency:
/// the p50 spread across runs was 3 to 5 times wider.
void WaitUntil(int64_t due_ns) {
  while (NowNs() < due_ns) sched_yield();
}

/// One client connection, sending `shape.window` requests at a time in
/// one pipelined send. Closed loop: the next window goes out when every
/// reply of the last one has arrived. Open loop: each window is sent when
/// due, and its latency counts from then.
void Drive(GemsdClient* client, const Shape& shape,
           const std::vector<std::string>& keys, uint64_t seed, size_t conn,
           const Load* load, Trace* trace, ConnResult* out) {
  Lane* lane = trace != nullptr ? trace->NewLane() : nullptr;
  RequestStream stream(seed, shape);
  const bool open = shape.rate_per_conn > 0.0;
  const double period_ns = open ? 1e9 / shape.rate_per_conn : 0.0;
  std::vector<Op> ops(shape.window);
  std::vector<std::vector<uint64_t>> items(shape.window);
  std::vector<Request> requests(shape.window);
  std::vector<Status> statuses;
  int64_t slot = -1;
  WaitUntil(load->start_ns);
  for (uint64_t i = 0;; i += shape.window) {
    for (size_t r = 0; r < shape.window; ++r) {
      stream.Next(&ops[r], &items[r]);
      requests[r] = ToRequest(ops[r], keys[ops[r].key], items[r]);
    }
    const int64_t now_slot = (NowNs() - load->start_ns) / kCpuSlotNs;
    if (!load->cpus.empty() && now_slot != slot) {
      slot = now_slot;
      const size_t n = load->cpus.size();
      const int cpu = load->cpus[(slot + conn * n / kConnections) % n];
      PinThread(0, cpu);
      PinThread(load->loops[conn], cpu);
    }
    const int64_t due =
        open ? load->start_ns +
                   static_cast<int64_t>(static_cast<double>(i) * period_ns)
             : NowNs();
    if (due >= load->end_ns) break;
    if (open) WaitUntil(due);
    const bool measured = due >= load->warm_end_ns;
    const int64_t sent = NowNs();
    const Status transport = client->Pipeline(requests, &statuses);
    const int64_t done = NowNs();
    out->issued += shape.window;
    if (measured && !open) out->window_us.push_back((done - sent) / 1e3);
    for (size_t r = 0; r < shape.window; ++r) {
      if (lane != nullptr) {
        lane->Add(ops[r].update ? "server.update_rtt" : "server.query_rtt",
                  load->run_span, RequestId(conn, i + r), sent, done);
      }
      const Status& s = r < statuses.size() ? statuses[r] : transport;
      if (!s.ok()) {
        if (out->failed++ == 0) out->error = s.ToString();
        continue;
      }
      if (!measured) continue;
      const Sample sample{done, static_cast<float>((done - due) / 1e3)};
      (ops[r].update ? out->updates : out->queries).push_back(sample);
      if (open) out->lag_us.push_back((sent - due) / 1e3);
    }
    if (!client->connected()) break;
  }
}

/// Nanoseconds each gemsd thread has run, by thread id, from
/// /proc/<pid>/task/<tid>/schedstat; empty where the kernel lacks it.
std::map<pid_t, double> ThreadRunNs(pid_t pid) {
  std::map<pid_t, double> run;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task/";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return run;
  while (const dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::FILE* f =
        std::fopen((dir + entry->d_name + "/schedstat").c_str(), "r");
    if (f == nullptr) continue;
    double ns = 0.0;
    if (std::fscanf(f, "%lf", &ns) == 1) {
      run[static_cast<pid_t>(std::atoi(entry->d_name))] = ns;
    }
    std::fclose(f);
  }
  ::closedir(tasks);
  return run;
}

/// The thread that ran most between two ThreadRunNs readings (0 if none
/// ran), and its share of all the run time between them.
pid_t Busiest(const std::map<pid_t, double>& before,
              const std::map<pid_t, double>& after, double* share) {
  pid_t busiest = 0;
  double most = 0.0, total = 0.0;
  for (const auto& [tid, ns] : after) {
    auto it = before.find(tid);
    const double grew = ns - (it == before.end() ? 0.0 : it->second);
    total += grew;
    if (grew > most) {
      most = grew;
      busiest = tid;
    }
  }
  *share = total > 0.0 ? most / total : 0.0;
  return busiest;
}

/// The gemsd thread that serves `client`: the one that runs most over a
/// burst of PINGs on it. 0 if it cannot be told.
pid_t ServingThread(GemsdClient& client, pid_t pid) {
  const std::map<pid_t, double> before = ThreadRunNs(pid);
  std::vector<Request> pings(256);  // A default Request is a PING.
  if (!PipelineAll(client, pings).ok()) return 0;
  double share = 0.0;
  return Busiest(before, ThreadRunNs(pid), &share);
}

/// Opens one connection per gemsd event loop. The loops share the
/// listening socket through EPOLLEXCLUSIVE, which hands a new connection
/// to the first loop idle in epoll_wait, so clients that connect while
/// the daemon is at rest usually all land on one loop and leave the other
/// idle: measured on the seed code, a loop served both connections in
/// most runs, and latency and memory were bimodal with it. Each new
/// connection is therefore opened while the loops already taken are kept
/// busy, and kept only once a PING burst shows a loop of its own serving
/// it. Where the kernel does not expose per-thread run time the
/// connections are kept as they land. `taken` receives the loop serving
/// each connection (0 where unknown).
Status PlaceConnections(const Daemon& daemon, size_t n,
                        std::vector<GemsdClient>* placed,
                        std::vector<pid_t>* taken) {
  const bool observable = !ThreadRunNs(daemon.pid()).empty();
  while (placed->size() < n) {
    for (int attempt = 0;; ++attempt) {
      if (attempt == 20) {
        return Status::Unavailable("no gemsd loop left for a connection");
      }
      // A CHECKPOINT keeps a loop out of epoll_wait for the whole image.
      std::atomic<bool> stop{false};
      std::thread busy([&] {
        while (!stop.load() && !placed->empty()) {
          for (GemsdClient& c : *placed) (void)c.Checkpoint();
        }
      });
      if (!placed->empty()) ::usleep(2000);
      gems::Result<GemsdClient> client =
          GemsdClient::Connect("127.0.0.1", daemon.port());
      stop.store(true);
      busy.join();
      if (!client.ok()) return client.status();
      const pid_t loop =
          observable ? ServingThread(client.value(), daemon.pid()) : 0;
      if (!observable ||
          (loop != 0 &&
           std::find(taken->begin(), taken->end(), loop) == taken->end())) {
        taken->push_back(loop);
        placed->push_back(std::move(client).value());
        break;
      }
    }
  }
  return Status::Ok();
}

/// Splits a Keyspace checkpoint image (u8 version, u32 count, then per
/// entry a varint-prefixed key and a u32-prefixed envelope) into a
/// key -> envelope map borrowing the image.
bool ParseCheckpoint(gems::ByteSpan image,
                     std::unordered_map<std::string, gems::ByteSpan>* out) {
  gems::ByteReader reader(image);
  uint8_t version = 0;
  uint32_t count = 0;
  if (!reader.GetU8(&version).ok() || !reader.GetU32(&count).ok()) return false;
  for (uint32_t i = 0; i < count; ++i) {
    std::string key;
    uint32_t length = 0;
    gems::ByteSpan envelope;
    if (!reader.GetString(&key).ok() || !reader.GetU32(&length).ok() ||
        !reader.GetRawView(length, &envelope).ok()) {
      return false;
    }
    (*out)[std::move(key)] = envelope;
  }
  return reader.AtEnd();
}

/// Visits every request the daemon received, in per-stream order: the
/// preload, then each connection's stream up to the count it sent.
template <typename Fn>
void ForEachSent(const Options& options, const Shape& shape,
                 const std::vector<ConnResult>& conns, Fn&& fn) {
  Op op;
  std::vector<uint64_t> items;
  RequestStream preload(DeriveSeed(options.seed, kPreloadStream), shape);
  for (uint32_t k = 0; k < shape.hll_keys + shape.cm_keys; ++k) {
    preload.Preload(k, &op, &items);
    fn(kPreloadStream, k, op, items);
  }
  for (size_t c = 0; c < conns.size(); ++c) {
    RequestStream stream(DeriveSeed(options.seed, c), shape);
    for (uint64_t i = 0; i < conns[c].issued; ++i) {
      stream.Next(&op, &items);
      fn(c, i, op, items);
    }
  }
}

/// The correctness check: every touched key's state in the daemon's
/// checkpoint is byte-identical to an in-process sketch fed the same
/// acknowledged batches. HLL++ registers and Count-Min counters do not
/// depend on the order the two connections' batches interleaved in.
void Verify(Context& ctx, const Shape& shape,
            const std::vector<std::string>& keys,
            const std::vector<ConnResult>& conns, gems::ByteSpan image) {
  Lane* lane = ctx.lane;
  const uint64_t parent = lane != nullptr ? lane->Begin("phase.verify") : 0;
  const gems::SketchRegistry& registry = gems::SketchRegistry::Global();
  std::vector<gems::AnySketch> ref(keys.size());
  double apply_ns[2] = {0.0, 0.0};
  uint64_t applied_items[2] = {0, 0};
  ForEachSent(ctx.options, shape, conns,
              [&](uint64_t, uint64_t, const Op& op,
                  const std::vector<uint64_t>& items) {
                if (!op.update) return;
                gems::AnySketch& sketch = ref[op.key];
                if (!sketch.has_value()) {
                  sketch = registry.FindByName(KeyType(shape, op.key))
                               ->make_default();
                }
                const int64_t t0 = lane != nullptr ? NowNs() : 0;
                sketch.UpdateBatch(items);
                if (lane != nullptr) {
                  apply_ns[op.cm] += static_cast<double>(NowNs() - t0);
                  applied_items[op.cm] += items.size();
                }
              });
  if (lane != nullptr) {
    ctx.report.Layer("sketch.hllpp.update_ns_per_item",
                     apply_ns[0] / std::max<uint64_t>(1, applied_items[0]),
                     "ns");
    ctx.report.Layer("sketch.count_min.update_ns_per_item",
                     apply_ns[1] / std::max<uint64_t>(1, applied_items[1]),
                     "ns");
  }

  std::unordered_map<std::string, gems::ByteSpan> remote;
  if (!ParseCheckpoint(image, &remote) || remote.size() != keys.size()) {
    ctx.report.Fail("gemsd checkpoint image does not hold every key");
  } else {
    uint64_t mismatched = 0;
    std::vector<uint8_t> local;
    for (uint32_t k = 0; k < keys.size(); ++k) {
      if (!ref[k].has_value()) continue;
      local.clear();
      gems::ByteSink sink(&local);
      ref[k].SerializeTo(sink);
      const gems::ByteSpan theirs = remote[keys[k]];
      if (!std::equal(local.begin(), local.end(), theirs.begin(),
                      theirs.end())) {
        ++mismatched;
      }
    }
    if (mismatched > 0) {
      ctx.report.Fail("key state differs from the in-process replay",
                      mismatched);
    }
  }
  if (lane != nullptr) lane->End(parent);
}

/// Traced runs only: the same requests replayed in process through each
/// layer the daemon runs, timed one layer at a time — frame split and
/// decode, the keyspace, a per-key ConcurrentAnySketch mirror built with
/// the daemon's options, and response encoding.
void ReplayLayers(Context& ctx, const Shape& shape,
                  const std::vector<std::string>& keys,
                  const std::vector<ConnResult>& conns) {
  Lane* lane = ctx.lane;
  const uint64_t parent = lane->Begin("phase.replay");
  gems::server::KeyspaceOptions keyspace_options;
  keyspace_options.num_shards = 256;
  gems::server::Keyspace keyspace(keyspace_options);
  for (uint32_t k = 0; k < keys.size(); ++k) {
    if (!keyspace.Create(keys[k], KeyType(shape, k)).ok()) {
      ctx.report.Fail("in-process keyspace create");
    }
  }
  std::vector<gems::ConcurrentAnySketch> mirror(keys.size());
  const gems::ConcurrentAnySketch::Options mirror_options =
      gems::server::KeyspaceOptions{}.sketch_options;
  std::vector<uint8_t> frame, out;
  std::vector<uint64_t> items_scratch, ts_scratch;
  uint64_t bytes_in = 0, bytes_out = 0, attempted = 0, hits = 0;
  ForEachSent(ctx.options, shape, conns, [&](uint64_t stream, uint64_t index,
                                             const Op& op,
                                             const std::vector<uint64_t>&
                                                 items) {
    const uint64_t rid = RequestId(stream, index);
    Request request = ToRequest(op, keys[op.key], items);
    request.id = rid;
    frame.clear();
    gems::server::EncodeRequest(request, &frame);
    bytes_in += frame.size();

    Request decoded;
    {
      Scoped span(lane, "server.decode_request", parent, rid);
      gems::ByteSpan body;
      size_t consumed = 0;
      if (!gems::server::SplitFrame(frame, gems::server::kDefaultMaxFrameBytes,
                                    &body, &consumed)
               .ok() ||
          !gems::server::DecodeRequest(body, &decoded, &items_scratch,
                                       &ts_scratch)
               .ok()) {
        ctx.report.Fail("replayed frame does not decode");
        return;
      }
    }
    Response response;
    response.opcode = decoded.opcode;
    response.id = decoded.id;
    ++attempted;
    if (op.update) {
      Status s;
      {
        Scoped span(lane, "keyspace.update", parent, rid);
        s = keyspace.Update(decoded.key, decoded.items);
      }
      response.code = s.code();
      hits += s.ok();
      gems::ConcurrentAnySketch& m = mirror[op.key];
      if (!m.has_value()) {
        m = gems::ConcurrentAnySketch::MakeByName(KeyType(shape, op.key),
                                                  mirror_options)
                .value();
      }
      Scoped span(lane, "concurrent.apply_batch", parent, rid);
      (void)m.ApplyBatch(decoded.items);
    } else {
      const gems::Result<gems::server::QueryResult> result = [&] {
        Scoped span(lane, "keyspace.query", parent, rid);
        return keyspace.Query(decoded.key, decoded.has_item, decoded.item,
                              decoded.confidence);
      }();
      response.code = result.status().code();
      if (result.ok()) {
        response.query = result.value();
        ++hits;
      }
      const gems::ConcurrentAnySketch& m = mirror[op.key];
      if (m.has_value()) {
        Scoped span(lane, "concurrent.estimate", parent, rid);
        (void)(decoded.has_item ? m.EstimateItemWithBounds(decoded.item)
                                : m.EstimateWithBounds());
      }
    }
    {
      Scoped span(lane, "server.encode_response", parent, rid);
      out.clear();
      gems::server::EncodeResponse(response, &out);
    }
    bytes_out += out.size();
  });
  lane->End(parent);
  ctx.report.Layer("server.bytes_in", static_cast<double>(bytes_in), "bytes");
  ctx.report.Layer("server.bytes_out", static_cast<double>(bytes_out), "bytes");
  ctx.report.Layer("keyspace.hit_ratio",
                   attempted > 0 ? static_cast<double>(hits) / attempted : 0.0,
                   "ratio");
}

void RunServe(Context& ctx, bool read_mix) {
  const Options& options = ctx.options;
  Report& report = ctx.report;
  Lane* lane = ctx.lane;
  const Shape shape = ShapeFor(read_mix, options.smoke);

  int64_t t = NowNs();
  uint64_t span = lane != nullptr ? lane->Begin("phase.gen") : 0;
  const std::vector<std::string> keys = KeyTable(shape);
  const double gen_s = (NowNs() - t) / 1e9;
  if (lane != nullptr) lane->End(span);

  // Set-up, repeated: only the last daemon is kept for the measurement.
  Daemon daemon;
  std::vector<double> setup_s;
  span = lane != nullptr ? lane->Begin("phase.setup") : 0;
  for (int i = 0; i < shape.setups; ++i) {
    daemon.Stop();
    t = NowNs();
    if (Status s = SetUp(options, shape, keys, &daemon); !s.ok()) {
      report.Fail("set-up: " + s.ToString());
      return;
    }
    setup_s.push_back((NowNs() - t) / 1e9);
  }
  if (lane != nullptr) lane->End(span);

  std::vector<GemsdClient> clients;
  std::vector<pid_t> loops;
  const int64_t connect_ns = NowNs();
  if (Status s = PlaceConnections(daemon, kConnections, &clients, &loops);
      !s.ok()) {
    report.Fail("connect: " + s.ToString());
    return;
  }
  const std::map<pid_t, double> run_before = ThreadRunNs(daemon.pid());

  Load load;
  // A connection whose client and loop share a CPU that changes in turn
  // sees each window of its cycle on every CPU, so the window's fastest
  // repetition finds one whose neighbours on the host were quiet. Unpinned,
  // with the median round trip of the whole run, ten runs in a loaded
  // spell of a shared 4-vCPU host spread 0.20 (quartile distance over
  // median; README.md).
  if (shape.cycle != 0 && std::count(loops.begin(), loops.end(), 0) == 0) {
    load.cpus = AllowedCpus();
    load.loops = loops;
  }
  load.start_ns = NowNs() + 10'000'000;  // Lets both threads start first.
  load.warm_end_ns = load.start_ns + static_cast<int64_t>(shape.warmup_s * 1e9);
  load.end_ns = load.warm_end_ns + static_cast<int64_t>(options.seconds * 1e9);
  if (lane != nullptr) {
    lane->Add("phase.connect", 0, 0, connect_ns, load.start_ns);
    load.run_span = lane->Begin("phase.run", 0, 0, load.start_ns);
  }
  std::vector<ConnResult> conns(kConnections);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(Drive, &clients[c], std::cref(shape),
                           std::cref(keys), DeriveSeed(options.seed, c), c,
                           &load, ctx.trace, &conns[c]);
    }
    for (std::thread& thread : threads) thread.join();
  }
  if (lane != nullptr) lane->End(load.run_span);
  // How evenly the two loops shared the run: 0.5 is an even split.
  double loop_share = 0.0;
  Busiest(run_before, ThreadRunNs(daemon.pid()), &loop_share);
  report.Detail("busiest_loop_share", std::to_string(loop_share));
  uint64_t failed_requests = 0;
  for (const ConnResult& c : conns) {
    report.Attempt(c.issued);
    failed_requests += c.failed;
    if (c.failed > 0) report.Fail("request failed: " + c.error, c.failed);
  }

  // State: whole-keyspace CHECKPOINT round trips.
  std::vector<uint8_t> image;
  std::vector<double> checkpoint_ms;
  span = lane != nullptr ? lane->Begin("phase.state") : 0;
  {
    gems::Result<GemsdClient> client =
        GemsdClient::Connect("127.0.0.1", daemon.port());
    for (int i = 0; client.ok() && i < shape.checkpoints; ++i) {
      Scoped cp(lane, "server.checkpoint", span);
      t = NowNs();
      gems::Result<std::vector<uint8_t>> got = client.value().Checkpoint();
      checkpoint_ms.push_back((NowNs() - t) / 1e6);
      report.Attempt(1);
      if (!got.ok()) {
        report.Fail("checkpoint: " + got.status().ToString());
        break;
      }
      image = std::move(got).value();
    }
    if (!client.ok()) report.Fail("connect: " + client.status().ToString());
  }
  const double peak_rss = ProcStatusMib(daemon.pid(), "VmHWM");
  if (!daemon.Stop()) report.Fail("gemsd did not exit cleanly on SIGTERM");
  if (lane != nullptr) lane->End(span);

  Verify(ctx, shape, keys, conns, image);
  if (ctx.lane != nullptr) ReplayLayers(ctx, shape, keys, conns);

  span = lane != nullptr ? lane->Begin("phase.report") : 0;
  std::vector<double> update_us, query_us, lag_us;
  int64_t last_done_ns = load.warm_end_ns + 1;
  for (const ConnResult& c : conns) {
    for (const Sample& s : c.updates) update_us.push_back(s.us);
    for (const Sample& s : c.queries) query_us.push_back(s.us);
    lag_us.insert(lag_us.end(), c.lag_us.begin(), c.lag_us.end());
    for (const std::vector<Sample>* v : {&c.updates, &c.queries}) {
      if (!v->empty()) last_done_ns = std::max(last_done_ns, v->back().done_ns);
    }
  }
  // serve_read: latency is the median of every measured QUERY, timed from
  // its scheduled send; the schedule sets the rate, so throughput is the
  // rate achieved from the start of the measured phase to the last
  // completion (a backlog lowers it). serve_write: as in the in-process
  // workloads, each window of a connection's cycle counts with its fastest
  // round trip; throughput is the requests/s those imply, summed over the
  // connections, and latency their median, averaged over the connections.
  Common common;
  common.setup_s = setup_s;
  common.latency_us = read_mix ? query_us : update_us;
  if (read_mix) {
    common.throughput =
        static_cast<double>(update_us.size() + query_us.size()) /
        ((last_done_ns - load.warm_end_ns) / 1e9);
    common.latency_p50_us = Median(common.latency_us);
  } else {
    for (const ConnResult& c : conns) {
      const Window fastest =
          FastestRepeats(c.window_us, shape.window, shape.cycle);
      common.throughput += fastest.rate;
      common.latency_p50_us += fastest.p50_us / conns.size();
    }
    report.Detail("repeats",
                  std::to_string(conns[0].window_us.size() / shape.cycle));
    report.Detail("rotated", load.cpus.empty() ? "false" : "true");
  }
  common.state_ms = checkpoint_ms;
  common.peak_rss_mb = peak_rss;
  ReportCommon(report, common);
  report.DetailTail("update_us", Summarize(update_us));
  report.DetailTail("query_us", Summarize(query_us));
  if (read_mix) {
    report.DetailTail("send_lag_us", Summarize(lag_us));
    report.Detail("offered_per_s",
                  std::to_string(shape.rate_per_conn * kConnections));
  }
  report.Detail("checkpoint_bytes", std::to_string(image.size()));
  report.Detail("keys", std::to_string(keys.size()));

  if (ctx.trace != nullptr) {
    const std::map<std::string, SpanStats> st = ctx.trace->Aggregate();
    const auto p50_us = [&](const char* name) {
      auto it = st.find(name);
      return it == st.end() ? 0.0 : it->second.p50_ns / 1e3;
    };
    const char* primary_rtt =
        read_mix ? "server.query_rtt" : "server.update_rtt";
    const char* primary_keyspace =
        read_mix ? "keyspace.query" : "keyspace.update";
    report.Layer("server.update_rtt_us", p50_us("server.update_rtt"), "us");
    report.Layer("server.query_rtt_us", p50_us("server.query_rtt"), "us");
    report.Layer("server.decode_request_us", p50_us("server.decode_request"),
                 "us");
    report.Layer("server.encode_response_us",
                 p50_us("server.encode_response"), "us");
    // A round trip carries a whole window; its share per request.
    report.Layer("server.loop_syscall_us",
                 p50_us(primary_rtt) / static_cast<double>(shape.window) -
                     p50_us("server.decode_request") -
                     p50_us(primary_keyspace) -
                     p50_us("server.encode_response"),
                 "us");
    report.Layer("server.failed", static_cast<double>(failed_requests),
                 "count");
    report.Layer("keyspace.update_us", p50_us("keyspace.update"), "us");
    report.Layer("keyspace.query_us", p50_us("keyspace.query"), "us");
    report.Layer("keyspace.lookup_us",
                 p50_us("keyspace.query") - p50_us("concurrent.estimate"),
                 "us");
    report.Layer("concurrent.apply_batch_us",
                 p50_us("concurrent.apply_batch"), "us");
    report.Layer("concurrent.estimate_us", p50_us("concurrent.estimate"),
                 "us");
    report.Layer("workload.gen_s", gen_s, "s");
    std::sort(lag_us.begin(), lag_us.end());
    report.Layer("workload.send_lag_p99_us", Quantile(lag_us, 0.99), "us");
  }
  if (lane != nullptr) lane->End(span);
}

}  // namespace

void RunServeWrite(Context& ctx) { RunServe(ctx, /*read_mix=*/false); }
void RunServeRead(Context& ctx) { RunServe(ctx, /*read_mix=*/true); }

}  // namespace gemsbench
