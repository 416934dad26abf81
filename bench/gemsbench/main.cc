// gemsbench: runs one workload and prints its report as one JSON line.
//
//   gemsbench --workload=<serve_write|serve_read|stream_multiquery|
//                         sketch_ingest>
//             --seed=N [--seconds=S] [--trace=PATH] [--gemsd=PATH] [--smoke]
//
// The exit code is 0 when every correctness check passed. run.py builds
// this binary, runs it once per workload and turns the report into the
// benchmark's result line; see README.md.

#include <cstdio>
#include <memory>
#include <string>

#include "core/registry.h"
#include "workloads.h"

namespace {

using gemsbench::Lane;
using gemsbench::NowNs;

/// Cost of recording one span on a lane (two clock reads and an append),
/// from a calibration loop; with the span count this estimates how much
/// of the traced run the tracing itself took.
double SpanCostNs() {
  Lane scratch(0x7FFF);
  constexpr int kSpans = 200000;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    const int64_t t0 = NowNs();
    scratch.Add("calibration", 1, static_cast<uint64_t>(i), t0, NowNs());
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace

int main(int argc, char** argv) {
  gems::Result<gemsbench::Options> parsed = gemsbench::ParseFlags(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "gemsbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const gemsbench::Options& options = parsed.value();
  struct Workload {
    const char* name;
    void (*run)(gemsbench::Context&);
  };
  const Workload workloads[] = {
      {"serve_write", gemsbench::RunServeWrite},
      {"serve_read", gemsbench::RunServeRead},
      {"stream_multiquery", gemsbench::RunStreamMultiquery},
      {"sketch_ingest", gemsbench::RunSketchIngest},
  };
  const Workload* workload = nullptr;
  for (const Workload& w : workloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "gemsbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  gems::RegisterBuiltinSketches();
  gemsbench::Report report;
  std::unique_ptr<gemsbench::Trace> trace;
  Lane* lane = nullptr;
  if (!options.trace_path.empty()) {
    trace = std::make_unique<gemsbench::Trace>();
    lane = trace->NewLane();
  }
  gemsbench::Context ctx{options, report, trace.get(), lane};
  const int64_t start = NowNs();
  workload->run(ctx);
  const int64_t wall_ns = NowNs() - start;

  if (trace != nullptr) {
    const double coverage = trace->Coverage(wall_ns);
    report.Layer("trace.coverage", coverage, "ratio");
    if (coverage < 0.95) report.Fail("trace coverage below 0.95");
    report.Layer("trace.overhead_pct",
                 100.0 * static_cast<double>(trace->NumSpans()) *
                     SpanCostNs() / static_cast<double>(wall_ns),
                 "%");
    if (!trace->WriteJson(options.trace_path)) {
      report.Fail("cannot write " + options.trace_path);
    }
  }
  std::printf("%s\n", report.ToJson(options).c_str());
  return report.correct() ? 0 : 1;
}
