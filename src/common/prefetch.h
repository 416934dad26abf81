#ifndef GEMS_COMMON_PREFETCH_H_
#define GEMS_COMMON_PREFETCH_H_

namespace gems {

/// Software prefetch for the two-phase (hash a run, touch its target
/// lines, then update) batched sketch loops. Each loop issues it only
/// above its own size threshold, where the target array outgrows the
/// caches.
inline void PrefetchForWrite(const void* addr) {
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/1);
}

}  // namespace gems

#endif  // GEMS_COMMON_PREFETCH_H_
