#include "harness.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/hugepage.h"
#include "common/random.h"
#include "simd/dispatch.h"

namespace gemsbench {

gems::Result<Options> ParseFlags(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.starts_with(flag) ? argv[i] + flag.size() : nullptr;
    };
    if (const char* v = value("--workload=")) {
      options.workload = v;
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      options.trace_path = v;
    } else if (const char* v = value("--gemsd=")) {
      options.gemsd = v;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return gems::Status::InvalidArgument("unknown flag " + std::string(arg));
    }
  }
  if (options.workload.empty()) {
    return gems::Status::InvalidArgument("--workload= is required");
  }
  if (!(options.seconds > 0.0) || options.seconds > 600.0) {
    return gems::Status::InvalidArgument("--seconds must be in (0, 600]");
  }
  return options;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return gems::Mix64(gems::Mix64(seed) ^ (stream * 0x9E3779B97F4A7C15ULL));
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double at = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (at - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

Tail Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail tail;
  tail.count = samples.size();
  tail.p50 = Quantile(samples, 0.5);
  tail.p90 = Quantile(samples, 0.9);
  tail.p99 = Quantile(samples, 0.99);
  tail.tail_pct = 50.0;
  tail.tail = tail.p50;
  for (double pct : {99.99, 99.9, 99.0, 90.0}) {
    const double beyond = static_cast<double>(samples.size()) * (100.0 - pct) / 100.0;
    if (beyond >= 10.0) {
      tail.tail_pct = pct;
      tail.tail = Quantile(samples, pct / 100.0);
      break;
    }
  }
  return tail;
}

bool ResetPeakRss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

double ProcStatusMib(pid_t pid, const char* field) {
  char path[64];
  if (pid == 0) {
    std::snprintf(path, sizeof(path), "/proc/self/status");
  } else {
    std::snprintf(path, sizeof(path), "/proc/%d/status", static_cast<int>(pid));
  }
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mib = -1.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mib = std::strtod(line + len + 1, nullptr) / 1024.0;  // kB -> MiB.
      break;
    }
  }
  std::fclose(f);
  return mib;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Report::Detail(const std::string& key, const std::string& json) {
  detail_.emplace_back(key, json);
}

void Report::DetailTail(const std::string& key, const Tail& tail) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %zu, \"p50\": %.6g, \"tail_pct\": %.2f, "
                "\"tail\": %.6g}",
                tail.count, tail.p50, tail.tail_pct, tail.tail);
  Detail(key, buf);
}

void Report::Fail(const std::string& what, uint64_t count) {
  std::fprintf(stderr, "gemsbench: check failed: %s (x%llu)\n", what.c_str(),
               static_cast<unsigned long long>(count));
  failures_.push_back(what);
  failed_ += count;
}

void ReportCommon(Report& report, const Common& common) {
  const Tail latency = Summarize(common.latency_us);
  report.Metric("setup_s", Median(common.setup_s), "s");
  report.Metric("throughput", common.throughput, "1/s");
  report.Metric("latency_p50_us", common.latency_p50_us, "us");
  report.Metric("peak_rss_mb", common.peak_rss_mb, "MiB");
  report.Layer("latency_p90_us", latency.p90, "us");
  report.Layer("latency_p99_us", latency.p99, "us");
  report.Layer("state_ms", Median(common.state_ms), "ms");
  report.DetailTail("latency_us", latency);
}

Window FastestRepeats(const std::vector<double>& op_us, double work_per_op,
                      size_t period) {
  std::vector<double> best(std::min(period, op_us.size()));
  for (size_t i = 0; i < op_us.size(); ++i) {
    double& b = best[i % period];
    b = i < period ? op_us[i] : std::min(b, op_us[i]);
  }
  double us = 0.0;
  for (double t : best) us += t;
  return {work_per_op * static_cast<double>(best.size()) / (us / 1e6),
          Median(best)};
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinThread(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(tid, sizeof(one), &one) == 0;
}

CpuRotation::CpuRotation() : cpus_(AllowedCpus()) {
  CPU_ZERO(&original_);
  ::sched_getaffinity(0, sizeof(original_), &original_);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (!cpus_.empty()) PinThread(0, cpus_[next_++ % cpus_.size()]);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string EntriesJson(const std::vector<std::pair<std::string, std::string>>&
                            members) {
  std::string out = "{";
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(members[i].first) + ": " + members[i].second;
  }
  return out + "}";
}

std::string NumberJson(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::ToJson(const Options& options) const {
  const auto metric_map = [](const std::vector<Entry>& entries) {
    std::vector<std::pair<std::string, std::string>> members;
    for (const Entry& e : entries) {
      members.emplace_back(e.name, "{\"value\": " + NumberJson(e.value) +
                                       ", \"unit\": " + JsonString(e.unit) +
                                       "}");
    }
    return EntriesJson(members);
  };
  std::string failures = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) failures += ", ";
    failures += JsonString(failures_[i]);
  }
  failures += "]";
  std::vector<std::pair<std::string, std::string>> top = {
      {"workload", JsonString(options.workload)},
      {"seed", std::to_string(options.seed)},
      {"seconds", NumberJson(options.seconds)},
      {"traced", options.trace_path.empty() ? "false" : "true"},
      {"smoke", options.smoke ? "true" : "false"},
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"dispatch", gems::simd::DispatchJson()},
      {"layout", gems::LayoutJson()},
      {"correct", correct() ? "true" : "false"},
      {"attempted", std::to_string(attempted_)},
      {"failed", std::to_string(failed_)},
      {"failures", failures},
      {"metrics", metric_map(metrics_)},
      {"layers", metric_map(layers_)},
      {"detail", EntriesJson(detail_)},
  };
  return EntriesJson(top);
}

}  // namespace gemsbench
