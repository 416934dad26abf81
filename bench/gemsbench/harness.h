#ifndef GEMSBENCH_HARNESS_H_
#define GEMSBENCH_HARNESS_H_

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

/// \file
/// The shared measurement spine of gemsbench: flags, clocks, sample
/// summaries, peak-RSS probes and the one JSON report every workload
/// emits.

namespace gemsbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase. Fractional values are accepted so the
  /// smoke mode can run sub-second phases.
  double seconds = 20.0;
  /// When non-empty, spans are recorded and written here at exit, and
  /// the report carries the per-layer metrics.
  std::string trace_path;
  /// Path of the gemsd binary the serve_* workloads spawn.
  std::string gemsd = "gemsd";
  /// Tiny sizes for a seconds-long end-to-end check of every workload.
  bool smoke = false;
};

/// Parses --workload=, --seed=, --seconds=, --trace=, --gemsd=, --smoke.
gems::Result<Options> ParseFlags(int argc, char** argv);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seed derivation: independent, well-mixed streams from one --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Value at quantile q in [0, 1] of an ascending-sorted sample.
double Quantile(const std::vector<double>& sorted, double q);

double Median(std::vector<double> values);

/// A timing sample reduced the way every gemsbench timing is reported:
/// its median plus the highest percentile with at least ten samples
/// beyond it (from 99.99 down to 50), and the sample count.
struct Tail {
  size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};
Tail Summarize(std::vector<double> samples);

/// Resets the calling process's VmHWM to its current RSS (Linux
/// clear_refs); false where the kernel refuses.
bool ResetPeakRss();
/// A /proc/<pid>/status field in MiB (e.g. "VmHWM", "VmRSS"); pid 0 is
/// this process. Negative when unreadable.
double ProcStatusMib(pid_t pid, const char* field);

/// One workload's result. `metrics` are the end-to-end numbers (always
/// measured), `layers` the per-layer ones (traced runs only); `detail`
/// holds extra JSON members (sample counts, tail percentiles, provenance
/// of a derived number).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// `json` must be a complete JSON value.
  void Detail(const std::string& key, const std::string& json);
  void DetailTail(const std::string& key, const Tail& tail);
  /// Records a failed correctness check (counted into `failed`).
  void Fail(const std::string& what, uint64_t count = 1);
  void Attempt(uint64_t count) { attempted_ += count; }

  bool correct() const { return failures_.empty(); }

  /// One-line JSON object: workload, seed, nproc, dispatch and layout
  /// provenance, correctness counts, metrics, layers and detail.
  std::string ToJson(const Options& options) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> layers_;
  std::vector<std::pair<std::string, std::string>> detail_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// What every workload measures, reported under the shared metric names:
/// setup_s (median set-up), throughput (operations/s), latency_p50_us and
/// peak_rss_mb, and in the per-layer set latency_p90_us and
/// latency_p99_us (over `latency_us`, every measured operation) and
/// state_ms (median state round trip). Those three are per-layer because
/// their run-to-run spread on a shared 4-core host came near or above the
/// largest bound a metric may have (README.md).
struct Common {
  std::vector<double> setup_s;
  double throughput = 0.0;
  double latency_p50_us = 0.0;
  std::vector<double> latency_us;
  std::vector<double> state_ms;
  double peak_rss_mb = 0.0;
};
void ReportCommon(Report& report, const Common& common);

/// Throughput and median operation latency of a loop that repeats one
/// sequence of `period` operations (`op_us` in the order run, `work_per_op`
/// units of work each), taken from each operation's fastest repetition.
/// Other tenants of a shared host slow a run in spells of seconds, while a
/// change to the code slows every repetition alike, so the fastest
/// repetition tracks the code and not the neighbours. Taken per operation,
/// it needs a quiet moment as long as one operation, not one as long as
/// the whole sequence.
struct Window {
  double rate = 0.0;
  double p50_us = 0.0;
};
Window FastestRepeats(const std::vector<double>& op_us, double work_per_op,
                      size_t period);

/// The CPUs this process may run on, ascending; empty if unknown.
std::vector<int> AllowedCpus();
/// Restricts thread `tid` (0 = the calling thread) to `cpu`; false if the
/// kernel refuses.
bool PinThread(pid_t tid, int cpu);

/// Moves the calling thread to the next of the CPUs it may run on, in
/// turn, at each Next(); the destructor gives it back its CPU set. A
/// single-threaded loop otherwise stays on one CPU for the whole run, and
/// on a shared host that CPU's neighbours then set the run's speed: on a
/// 4-vCPU host a fixed compute loop ran either about 60 ms or about 36 ms
/// depending on the CPU, and which CPUs were fast changed every few
/// seconds. Repeating the work on every CPU in turn lets each operation's
/// fastest repetition find a quiet one.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// JSON string literal for `s` (quotes and escapes included).
std::string JsonString(const std::string& s);

}  // namespace gemsbench

#endif  // GEMSBENCH_HARNESS_H_
