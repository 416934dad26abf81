#ifndef GEMS_COMMON_HUGEPAGE_H_
#define GEMS_COMMON_HUGEPAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Hugepage-backed allocation for large sketch register arrays. Once ingest
/// is vectorized, big sketches bottleneck on TLB misses: a 32 MiB Count-Min
/// walked by random probes touches 8192 distinct 4 KiB pages, but only 16
/// 2 MiB hugepages. `HugePageAllocator` routes allocations at or above a
/// 2 MiB threshold through anonymous mmap + madvise(MADV_HUGEPAGE) so the
/// kernel backs them with transparent hugepages where it can, and falls
/// back to aligned operator new everywhere else (small allocations,
/// non-Linux hosts, GEMS_DISABLE_HUGEPAGES=1). The fallback is transparent:
/// callers see only an allocator whose blocks are always 64-byte aligned —
/// which the cache-line-blocked sketch layouts rely on.
///
/// Grant/deny counters are process-global and exported through
/// HugePageStats()/LayoutJson() so benches can record placement provenance
/// next to the SIMD dispatch provenance.

namespace gems {

/// Allocation-path counters since process start. "granted" counts mmap
/// allocations whose MADV_HUGEPAGE advice the kernel accepted, "denied"
/// counts mmap allocations where the advice was refused (the 4 KiB-paged
/// mapping is still used), "fallback_small" counts allocations under the
/// threshold or on hosts without hugepage support (always heap-served).
struct HugePageStats {
  uint64_t granted = 0;
  uint64_t denied = 0;
  uint64_t fallback_small = 0;
};

HugePageStats GetHugePageStats();

/// False when GEMS_DISABLE_HUGEPAGES is set or the platform has no
/// MADV_HUGEPAGE; cached on first call.
bool HugePagesEnabled();

namespace hugepage_internal {

/// Allocations at or above this go the mmap + MADV_HUGEPAGE route (2 MiB —
/// the x86-64 transparent-hugepage size).
inline constexpr size_t kHugePageThreshold = size_t{2} << 20;

void* Allocate(size_t bytes);
void Deallocate(void* ptr, size_t bytes) noexcept;

}  // namespace hugepage_internal

/// Minimal std allocator over the hugepage path. Stateless: deallocate
/// recomputes the allocation route from the byte count, so containers can
/// copy/move freely.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(hugepage_internal::Allocate(n * sizeof(T)));
  }
  void deallocate(T* ptr, size_t n) noexcept {
    hugepage_internal::Deallocate(ptr, n * sizeof(T));
  }

  friend bool operator==(const HugePageAllocator&, const HugePageAllocator&) {
    return true;
  }
};

/// The register-array vector type the big sketch families use: std::vector
/// semantics, hugepage-backed above the threshold, 64-byte aligned always.
template <typename T>
using HugeVector = std::vector<T, HugePageAllocator<T>>;

/// Memory-layout provenance for bench JSON: the hugepage switch and
/// grant/deny counters, alongside simd::DispatchJson().
std::string LayoutJson();

}  // namespace gems

#endif  // GEMS_COMMON_HUGEPAGE_H_
