#ifndef GEMSBENCH_TRACE_H_
#define GEMSBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"

/// \file
/// In-memory span recorder for the traced run. A span is (name, start,
/// end, parent span, request id); spans of one request share the request
/// id. Each recording thread owns a Lane, so the hot path is an append to
/// a thread-private vector. Nothing is recorded unless --trace is given:
/// workloads hold a null Lane* then, and every call site checks it.
///
/// Spans are recorded from the benchmark's own files, around its calls
/// into each layer of the library; the library itself is not
/// instrumented.

namespace gemsbench {

struct Span {
  const char* name;  // String literal; compared by content when aggregating.
  uint64_t id;
  uint64_t parent;   // 0 = top level.
  uint64_t request;  // 0 = not tied to a request.
  int64_t start_ns;
  int64_t end_ns;
};

/// A thread-private span buffer. Span ids carry the lane number in their
/// top 16 bits, so ids are unique across lanes without coordination.
class Lane {
 public:
  explicit Lane(uint64_t lane_number) : base_((lane_number + 1) << 48) {}

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Opens a span starting at `start_ns` and returns its id.
  uint64_t Begin(const char* name, uint64_t parent = 0, uint64_t request = 0,
                 int64_t start_ns = NowNs()) {
    const uint64_t id = base_ + spans_.size();
    spans_.push_back({name, id, parent, request, start_ns, start_ns});
    return id;
  }

  /// Closes a span this lane opened.
  void End(uint64_t id, int64_t end_ns = NowNs()) {
    spans_[id - base_].end_ns = end_ns;
  }

  /// Records a finished span.
  void Add(const char* name, uint64_t parent, uint64_t request,
           int64_t start_ns, int64_t end_ns) {
    End(Begin(name, parent, request, start_ns), end_ns);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t base_;
  std::vector<Span> spans_;
};

/// RAII span on a possibly-null lane: times the enclosing scope.
class Scoped {
 public:
  Scoped(Lane* lane, const char* name, uint64_t parent = 0,
         uint64_t request = 0)
      : lane_(lane), id_(lane ? lane->Begin(name, parent, request) : 0) {}
  ~Scoped() {
    if (lane_ != nullptr) lane_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Lane* lane_;
  uint64_t id_;
};

/// Per-name aggregate over every recorded span of that name.
struct SpanStats {
  uint64_t count = 0;
  double busy_ns = 0.0;  // Sum of durations.
  double self_ns = 0.0;  // Busy time not covered by child spans.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

class Trace {
 public:
  /// A new lane for the calling thread; stays valid for the trace's life.
  Lane* NewLane() {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(std::make_unique<Lane>(lanes_.size()));
    return lanes_.back().get();
  }

  /// Aggregates every lane: count, busy time, p50/p99 and self time per
  /// span name. Self time subtracts the union of the children's
  /// intervals, clipped to the parent, so concurrent children on several
  /// lanes are not double-subtracted.
  std::map<std::string, SpanStats> Aggregate() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, SpanStats> stats;
    for (const auto& lane : lanes_) {
      for (const Span& s : lane->spans()) {
        if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
        durations[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    for (const auto& lane : lanes_) {
      for (const Span& s : lane->spans()) {
        SpanStats& st = stats[s.name];
        const double duration = static_cast<double>(s.end_ns - s.start_ns);
        st.busy_ns += duration;
        st.self_ns += duration - CoveredNs(s, children);
      }
    }
    for (auto& [name, d] : durations) {
      std::sort(d.begin(), d.end());
      SpanStats& st = stats[name];
      st.count = d.size();
      st.p50_ns = Quantile(d, 0.5);
      st.p99_ns = Quantile(d, 0.99);
    }
    return stats;
  }

  /// Sum of top-level span durations over the traced wall time.
  double Coverage(int64_t wall_ns) const {
    std::lock_guard<std::mutex> lock(mutex_);
    double top = 0.0;
    for (const auto& lane : lanes_) {
      for (const Span& s : lane->spans()) {
        if (s.parent == 0) top += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    return wall_ns > 0 ? top / static_cast<double>(wall_ns) : 0.0;
  }

  size_t NumSpans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& lane : lanes_) n += lane->spans().size();
    return n;
  }

  /// Writes the aggregates and the first `max_raw` raw spans as one JSON
  /// object. Returns false on an I/O error.
  bool WriteJson(const std::string& path, size_t max_raw = 20000) const {
    const std::map<std::string, SpanStats> stats = Aggregate();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": {");
    bool first = true;
    for (const auto& [name, st] : stats) {
      std::fprintf(f,
                   "%s\n  %s: {\"count\": %llu, \"busy_ms\": %.6f, "
                   "\"self_ms\": %.6f, \"p50_us\": %.4f, \"p99_us\": %.4f}",
                   first ? "" : ",", JsonString(name).c_str(),
                   static_cast<unsigned long long>(st.count), st.busy_ns / 1e6,
                   st.self_ns / 1e6, st.p50_ns / 1e3, st.p99_ns / 1e3);
      first = false;
    }
    std::fprintf(f, "},\n\"raw\": [");
    std::lock_guard<std::mutex> lock(mutex_);
    size_t written = 0;
    for (const auto& lane : lanes_) {
      for (const Span& s : lane->spans()) {
        if (written == max_raw) break;
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}",
                     written == 0 ? "" : ",", s.name,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
        ++written;
      }
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double CoveredNs(
      const Span& parent,
      std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>&
          children) {
    auto it = children.find(parent.id);
    if (it == children.end()) return 0.0;
    std::vector<std::pair<int64_t, int64_t>>& spans = it->second;
    std::sort(spans.begin(), spans.end());
    double covered = 0.0;
    int64_t cursor = parent.start_ns;
    for (auto [start, end] : spans) {
      start = std::max(start, cursor);
      end = std::min(end, parent.end_ns);
      if (end > start) {
        covered += static_cast<double>(end - start);
        cursor = end;
      }
    }
    return covered;
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace gemsbench

#endif  // GEMSBENCH_TRACE_H_
