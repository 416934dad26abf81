#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

namespace gems::simd {
namespace {

bool ForceScalarFromEnv() {
  const char* v = std::getenv("GEMS_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

#if defined(__x86_64__) || defined(_M_X64)
std::string DetectX86Features() {
  // __builtin_cpu_supports consults libgcc's cpu_indicator, which already
  // folds in the OSXSAVE/XCR0 check — "avx2" here means usable, not just
  // present in CPUID.
  std::string out;
  const auto add = [&out](const char* name, bool present) {
    if (!present) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add("sse2", __builtin_cpu_supports("sse2"));
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("popcnt", __builtin_cpu_supports("popcnt"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("bmi", __builtin_cpu_supports("bmi"));
  add("bmi2", __builtin_cpu_supports("bmi2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512cd", __builtin_cpu_supports("avx512cd"));
  add("avx512dq", __builtin_cpu_supports("avx512dq"));
  add("avx512vl", __builtin_cpu_supports("avx512vl"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  return out;
}

bool CpuHasAvx512Subsets() {
  // The five subsets kernels_avx512.cc is compiled against. Every
  // AVX-512-era server core (Skylake-SP onward) has all five; Knights
  // Landing-style F-only parts fall back to AVX2.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw");
}
#endif

struct Selection {
  const SimdKernels* table;
  DispatchInfo info;
};

Selection Select() {
  Selection s;
  s.table = &ScalarKernels();
  s.info.level = s.table->name;
  s.info.forced_scalar = false;
#if defined(__x86_64__) || defined(_M_X64)
  s.info.cpu_features = DetectX86Features();
  const SimdKernels* avx2 = Avx2Kernels();
  if (avx2 != nullptr && __builtin_cpu_supports("avx2")) {
    s.table = avx2;
  }
  const SimdKernels* avx512 = Avx512Kernels();
  if (avx512 != nullptr && CpuHasAvx512Subsets()) {
    s.table = avx512;
  }
#endif
  if (ForceScalarFromEnv()) {
    s.info.forced_scalar = s.table != &ScalarKernels();
    s.table = &ScalarKernels();
  }
  s.info.level = s.table->name;
  return s;
}

const Selection& GlobalSelection() {
  static const Selection s = Select();
  return s;
}

std::atomic<bool> g_force_scalar{false};

std::string JsonEscape(const std::string& in) {
  // Feature strings are [a-z0-9. ] in practice; escape defensively anyway.
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

const SimdKernels& Kernels() {
  if (g_force_scalar.load(std::memory_order_relaxed)) return ScalarKernels();
  return *GlobalSelection().table;
}

const DispatchInfo& Dispatch() { return GlobalSelection().info; }

const char* ActiveLevel() { return Kernels().name; }

std::string DispatchJson() {
  const DispatchInfo& info = Dispatch();
  std::string out = "{\"level\": \"";
  out += info.level;
  out += "\", \"cpu_features\": \"";
  out += JsonEscape(info.cpu_features);
  out += "\", \"forced_scalar\": ";
  out += info.forced_scalar ? "true" : "false";
  out += "}";
  return out;
}

void ForceScalarForTesting(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

}  // namespace gems::simd
