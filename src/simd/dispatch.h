#ifndef GEMS_SIMD_DISPATCH_H_
#define GEMS_SIMD_DISPATCH_H_

#include <string>

#include "simd/kernels.h"

/// \file
/// Startup kernel-table selection. The process picks one SimdKernels table
/// exactly once — GEMS_FORCE_SCALAR wins, then the best table the CPU
/// supports (AVX-512, then AVX2, on x86-64), else the scalar reference —
/// and every sketch hot loop calls through `Kernels()`. There is no other
/// CPU-feature-detection path in the codebase.

namespace gems::simd {

/// What dispatch decided at startup, for bench/caps attribution.
struct DispatchInfo {
  /// Selected table name: "scalar", "avx2", "avx512".
  const char* level;
  /// Space-separated ISA features the CPU reports (x86 only; empty
  /// elsewhere). Attributes BENCH_*.json artifacts to hardware.
  std::string cpu_features;
  /// True when GEMS_FORCE_SCALAR overrode a faster table.
  bool forced_scalar;
};

/// The active kernel table. Selection happens on first call and is then a
/// single atomic load; safe to call from any thread.
const SimdKernels& Kernels();

/// The startup selection record (not affected by ForceScalarForTesting).
const DispatchInfo& Dispatch();

/// Name of the table Kernels() currently returns (reflects the test hook).
const char* ActiveLevel();

/// `{"level": ..., "cpu_features": ..., "forced_scalar": ...}` — the object
/// every bench --*_json output embeds under "dispatch".
std::string DispatchJson();

/// Bench/test hook: while forced, Kernels() returns the scalar table
/// regardless of the startup selection. The SIMD bench column measures
/// scalar-vs-dispatched in one process with this; parity tests use it to
/// cross-check. Not a public API.
void ForceScalarForTesting(bool force);

}  // namespace gems::simd

#endif  // GEMS_SIMD_DISPATCH_H_
