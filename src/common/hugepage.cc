#include "common/hugepage.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace gems {
namespace {

std::atomic<uint64_t> g_granted{0};
std::atomic<uint64_t> g_denied{0};
std::atomic<uint64_t> g_fallback_small{0};

// Heap fallback path. 64-byte alignment is part of the allocator's
// contract (cache-line-blocked layouts index blocks assuming line
// alignment), so the small path over-aligns rather than using plain new.
void* AlignedHeapAllocate(size_t bytes) {
  return ::operator new(bytes, std::align_val_t{64});
}

void AlignedHeapDeallocate(void* ptr, size_t bytes) noexcept {
  ::operator delete(ptr, bytes, std::align_val_t{64});
}

}  // namespace

bool HugePagesEnabled() {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  static const bool enabled =
      std::getenv("GEMS_DISABLE_HUGEPAGES") == nullptr;
  return enabled;
#else
  return false;
#endif
}

HugePageStats GetHugePageStats() {
  HugePageStats stats;
  stats.granted = g_granted.load(std::memory_order_relaxed);
  stats.denied = g_denied.load(std::memory_order_relaxed);
  stats.fallback_small = g_fallback_small.load(std::memory_order_relaxed);
  return stats;
}

namespace hugepage_internal {

void* Allocate(size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes >= kHugePageThreshold && HugePagesEnabled()) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // The deallocate route is recomputed from (bytes, enabled) alone, so
    // a large allocation must always come from mmap: on mmap failure we
    // report OOM rather than silently switching to a heap pointer that
    // Deallocate would munmap.
    void* ptr = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (ptr == MAP_FAILED) throw std::bad_alloc();
    if (::madvise(ptr, bytes, MADV_HUGEPAGE) == 0) {
      g_granted.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The mapping is still usable, just not hugepage-advised.
      g_denied.fetch_add(1, std::memory_order_relaxed);
    }
    return ptr;
#else
    return AlignedHeapAllocate(bytes);
#endif
  }
  g_fallback_small.fetch_add(1, std::memory_order_relaxed);
  return AlignedHeapAllocate(bytes);
}

void Deallocate(void* ptr, size_t bytes) noexcept {
  if (ptr == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes >= kHugePageThreshold && HugePagesEnabled()) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    ::munmap(ptr, bytes);
    return;
#endif
  }
  AlignedHeapDeallocate(ptr, bytes);
}

}  // namespace hugepage_internal

std::string LayoutJson() {
  const HugePageStats stats = GetHugePageStats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"hugepages_enabled\": %s, "
                "\"hugepage_granted\": %llu, \"hugepage_denied\": %llu, "
                "\"hugepage_fallback_small\": %llu}",
                HugePagesEnabled() ? "true" : "false",
                static_cast<unsigned long long>(stats.granted),
                static_cast<unsigned long long>(stats.denied),
                static_cast<unsigned long long>(stats.fallback_small));
  return std::string(buf);
}

}  // namespace gems
