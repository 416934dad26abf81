#ifndef GEMSBENCH_WORKLOADS_H_
#define GEMSBENCH_WORKLOADS_H_

#include "harness.h"
#include "trace.h"

namespace gemsbench {

/// What a workload runs against: its flags, the report it fills, and the
/// trace (null unless --trace) with the main thread's lane.
struct Context {
  const Options& options;
  Report& report;
  Trace* trace = nullptr;
  Lane* lane = nullptr;
};

void RunServeWrite(Context& ctx);
void RunServeRead(Context& ctx);
void RunStreamMultiquery(Context& ctx);
void RunSketchIngest(Context& ctx);

}  // namespace gemsbench

#endif  // GEMSBENCH_WORKLOADS_H_
