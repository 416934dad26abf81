#ifndef GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_SUMMARY_H_
#define GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_SUMMARY_H_

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/summary.h"
#include "distributed/concurrent/epoch.h"
#include "distributed/concurrent/thread_slots.h"

/// \file
/// Wait-free concurrent wrapper for any mergeable summary, rebuilt on the
/// local-buffer/propagator design of "Fast Concurrent Data Sketches"
/// (Rinberg et al., TOPC 2022), replacing the old striped-mutex wrapper
/// whose Snapshot() blocked writers stripe by stripe.
///
/// Data flow, writer side:
///   item --> per-thread bounded buffer (plain vector append, no atomics)
///        --> on fill: one UpdateBatch/InsertBatch drain into the
///            thread's private *local sketch* (the expensive hashing work,
///            entirely off any shared state)
///        --> propagation: the local sketch is folded (Merge) into the
///            shared summary under the fold mutex, then reset to an empty
///            delta. Folds use try_lock first: a writer that finds the
///            mutex busy just keeps accumulating locally and retries at
///            the next drain, up to a hard pending cap — so the common
///            case never blocks, and the worst case is one short merge.
///
/// Reader side: the summary lives in two copies (see epoch.h). Every
/// write (a writer's fold, an external fold, a slotless overflow update)
/// is applied to the standby copy, the epoch flips, and the same write is
/// replayed on the former active copy once its readers have left, so no
/// write copies the whole summary. A copy that still shares its state with
/// another handle (a copy-on-write AnySketch fresh from its prototype, or
/// one a held Snapshot shares) is assigned the new active copy instead of
/// replaying, which costs one shared handle. Estimate() is a single atomic
/// load of an estimate cached after each write; Query(),
/// EstimateWithBounds() and Snapshot() run against the pinned active copy.
/// No reader ever takes the fold mutex or stalls ingest.
///
/// Consistency: queries see a *bounded-staleness* view — everything up to
/// each writer's last propagation (at most max_pending_items per writer),
/// plus any slotless single items still queued (fewer than
/// propagate_items) — and always a *consistent* one: the active copy is a
/// real sketch state, the merge of whole deltas, never a torn mix. Once
/// quiesced (writers joined — thread-exit hooks fold residuals — or
/// FlushLocal() called), the snapshot equals the sequential sketch fed the
/// same stream; for partition-independent merges (HLL max, Count-Min sum,
/// Bloom OR) it is byte-identical.

namespace gems {

/// Wait-free concurrent wrapper around a mergeable summary S. The old
/// striped-lock API surface (Update, UpdateBatch, InsertBatch, Snapshot)
/// is preserved; Estimate/EstimateWithBounds/Query/epoch are new.
template <typename S>
  requires MergeableSummary<S> && std::copy_constructible<S> &&
           std::is_copy_assignable_v<S>
class ConcurrentSummary {
 public:
  /// True when updates are staged in a per-thread buffer of 64-bit items
  /// (item and membership summaries) before the batched drain.
  static constexpr bool kBuffersItems =
      BatchItemSummary<S> || BatchInsertableSummary<S>;
  /// True when the buffer holds doubles (value/quantile summaries).
  static constexpr bool kBuffersValues =
      !kBuffersItems && BatchValueSummary<S>;
  static constexpr bool kBuffered = kBuffersItems || kBuffersValues;
  /// What the per-thread buffer holds.
  using BufferItem = std::conditional_t<kBuffersValues, double, uint64_t>;

  struct Options {
    /// Per-thread item buffer capacity; a full buffer triggers one batched
    /// drain into the thread's local sketch.
    size_t buffer_items = 4096;
    /// Writer slots. 0 picks 2x the hardware concurrency, clamped to
    /// [kMinSlots, kMaxSlots]. Threads beyond the slot count fall back to
    /// a (correct, slower) locked path on the shared summary.
    size_t max_threads = 0;
    /// Fold the local sketch into the shared summary once this many items
    /// have accumulated in it; 0 means "every buffer drain". Together with
    /// the buffer this bounds staleness: a query can miss at most
    /// max_pending_items + buffer_items per live writer thread. Slotless
    /// single items queue until this many are waiting.
    size_t propagate_items = 0;
    /// Hard cap on unfolded local items: below it a writer uses try_lock
    /// and keeps going if the fold mutex is busy; at the cap it waits.
    /// 0 means 8x propagate_items.
    size_t max_pending_items = 0;
  };

  static constexpr size_t kMinSlots = 8;
  static constexpr size_t kMaxSlots = 256;

  /// All sketches (both shared copies, per-thread locals) start as copies
  /// of `prototype`, so folds are merge-compatible by construction.
  explicit ConcurrentSummary(const S& prototype, Options options = Options{})
      : shared_(std::make_shared<Shared>(prototype, Resolve(options))) {}

  ConcurrentSummary(const ConcurrentSummary&) = delete;
  ConcurrentSummary& operator=(const ConcurrentSummary&) = delete;

  size_t max_threads() const { return shared_->slots.size(); }
  const Options& options() const { return shared_->options; }

  /// Thread-safe single update. Single 64-bit-item (or double, for value
  /// summaries) updates take the buffered wait-free path; anything else
  /// (weighted updates, multi-argument shapes) applies directly to this
  /// thread's local sketch — still contention-free, just unbatched.
  void Update(BufferItem item)
    requires kBuffered
  {
    Shared& sh = *shared_;
    Local* local = AcquireLocal(sh);
    if (local == nullptr) {
      OverflowApply(sh, item);
      return;
    }
    local->buffer.push_back(item);
    if (local->buffer.size() >= sh.options.buffer_items) {
      DrainBuffer(*local);
      MaybePropagate(sh, *local);
    }
  }

  /// Forwarding overload for update shapes the buffer cannot carry.
  template <typename... Args>
    requires(sizeof...(Args) >= 1) &&
            requires(S s, Args&&... args) {
              s.Update(std::forward<Args>(args)...);
            } &&
            (!(kBuffered && sizeof...(Args) == 1 &&
               (std::is_convertible_v<Args, BufferItem> && ...)))
  void Update(Args&&... args) {
    Shared& sh = *shared_;
    Local* local = AcquireLocal(sh);
    if (local == nullptr) {
      // Runs once per copy, so the arguments are passed as lvalues.
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      (void)Write(sh, [&](S& copy) {
        copy.Update(args...);
        return Status::Ok();
      });
      return;
    }
    if (!local->buffer.empty()) DrainBuffer(*local);
    local->sketch->Update(std::forward<Args>(args)...);
    local->pending += 1;
    MaybePropagate(sh, *local);
  }

  /// Membership-filter convenience; same buffered path as Update.
  void Insert(uint64_t key)
    requires BatchInsertableSummary<S>
  {
    Update(key);
  }

  /// Thread-safe batch drain (old API): the span feeds the thread's local
  /// sketch through the summary's batch fast path, then propagates if the
  /// fold threshold is crossed. No locks unless propagating.
  void UpdateBatch(std::span<const uint64_t> items)
    requires BatchItemSummary<S>
  {
    IngestSpan(items);
  }

  /// Batch drain for value (quantile) summaries.
  void UpdateBatch(std::span<const double> values)
    requires BatchValueSummary<S> && (!BatchItemSummary<S>)
  {
    IngestSpan(values);
  }

  /// Batch drain for membership filters (old API).
  void InsertBatch(std::span<const uint64_t> keys)
    requires BatchInsertableSummary<S>
  {
    IngestSpan(keys);
  }

  /// Drains the *calling thread's* buffered items, folds its local sketch
  /// into the shared summary, and applies any queued slotless items. Gives
  /// the calling thread read-your-writes; other threads' unfolded tails
  /// remain subject to the staleness bound until they propagate or exit.
  void FlushLocal() const { FlushLocalFor(*shared_); }

  /// Wait-free point estimate: one atomic load of the value cached at the
  /// last write. Staleness is bounded as documented above.
  double Estimate() const
    requires EstimableSummary<S>
  {
    return shared_->cached_estimate.load(std::memory_order_acquire);
  }

  /// Interval estimate computed against the pinned active copy — no copy,
  /// no lock, any confidence level.
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const
    requires BoundedPointEstimableSummary<S>
  {
    return Query(
        [&](const S& s) { return s.EstimateWithBounds(confidence); });
  }

  /// Runs `fn(const S&)` against the pinned active copy and returns its
  /// result — the general wait-free read (point queries on Count-Min,
  /// quantile probes, serialization, ...). `fn` must not retain the
  /// reference past its return, and must not write to this summary: a
  /// write waits for the active copy's readers, `fn` among them.
  template <typename Fn>
  auto Query(Fn&& fn) const {
    return shared_->copies.Read(std::forward<Fn>(fn));
  }

  /// Publication version: advances once per successful write. Monotone;
  /// usable as a staleness probe ("has anything landed since I last
  /// looked").
  uint64_t epoch() const { return shared_->copies.epoch(); }

  /// Applies `fn(S&) -> Status` to the shared summary under the fold
  /// mutex — the entry point for folding *externally built* deltas (a
  /// deserialized peer sketch, restored checkpoint state) into a live
  /// summary, which is how the gemsd UPDATE, MERGE and RESTORE paths land.
  /// Readers see the result once this returns. `fn` runs once per copy
  /// (see EpochPublished::Write): it must be deterministic in the copy's
  /// state and must not consume what it captures. Unlike writer folds, a
  /// failure here is the caller's to handle (e.g. a parameter-mismatched
  /// merge): it is returned, never latched into the summary's error state,
  /// and the epoch does not move.
  template <typename Fn>
  Status FoldExternal(Fn&& fn) {
    Shared& sh = *shared_;
    std::lock_guard<std::mutex> lock(sh.fold_mutex);
    return Write(sh, fn);
  }

  /// Folds a whole summary of the same shape into the shared summary —
  /// the concrete-type convenience over FoldExternal.
  Status MergeDelta(const S& delta) {
    return FoldExternal([&](S& copy) { return copy.Merge(delta); });
  }

  /// Consistent snapshot (old API): folds the calling thread's residual
  /// state and the queued slotless items, then copies the active version
  /// under a pin. Never blocks writers; concurrent snapshots are monotone
  /// in epoch. A fold error (only possible for summaries whose Merge has
  /// data-dependent preconditions) is propagated here rather than
  /// aborting.
  Result<S> Snapshot() const {
    Shared& sh = *shared_;
    FlushLocalFor(sh);
    if (sh.has_error.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      return sh.first_error;
    }
    return sh.copies.Read([](const S& s) { return Result<S>(s); });
  }

 private:
  /// One writer thread's world: the staging buffer and the private delta
  /// sketch, touched only by the owning thread (plus the exit hook, which
  /// runs on the owning thread too).
  struct Local {
    std::vector<BufferItem> buffer;
    std::optional<S> sketch;
    size_t pending = 0;  // Items in `sketch` not yet folded.
  };

  /// A claimable slot. Separate heap allocations + alignment keep two
  /// writers' hot state off each other's cache lines.
  struct alignas(64) Slot {
    std::atomic<bool> claimed{false};
    Local local;
  };

  /// Everything the instance and its writer threads share. Held by
  /// shared_ptr so a thread-exit hook can run safely even while the
  /// wrapper itself is being torn down elsewhere (the hook locks a
  /// weak_ptr).
  struct Shared {
    Shared(const S& proto, Options opts)
        : options(opts),
          prototype(proto),
          copies(proto),
          instance_id(concurrent_internal::NextInstanceId()) {
      slots.reserve(options.max_threads);
      for (size_t i = 0; i < options.max_threads; ++i) {
        slots.push_back(std::make_unique<Slot>());
      }
      if constexpr (EstimableSummary<S>) {
        cached_estimate.store(proto.Estimate(), std::memory_order_relaxed);
      }
    }

    Options options;
    const S prototype;  // Delta resets copy from this; never mutated.
    std::vector<std::unique_ptr<Slot>> slots;

    // Write state, guarded by fold_mutex (`copies` is written only under
    // it and read wait-free).
    std::mutex fold_mutex;
    std::vector<BufferItem> overflow;  // Queued slotless single items.
    Status first_error = Status::Ok();
    EpochPublished<S> copies;
    std::atomic<double> cached_estimate{0.0};
    std::atomic<bool> has_error{false};
    const uint64_t instance_id;
  };

  static Options Resolve(Options options) {
    if (options.buffer_items == 0) options.buffer_items = 1;
    if (options.max_threads == 0) {
      const size_t hw = std::thread::hardware_concurrency();
      options.max_threads =
          std::min(kMaxSlots, std::max(kMinSlots, 2 * std::max<size_t>(hw, 1)));
    }
    if (options.max_threads > kMaxSlots) options.max_threads = kMaxSlots;
    if (options.propagate_items == 0) {
      options.propagate_items = options.buffer_items;
    }
    if (options.max_pending_items < options.propagate_items) {
      options.max_pending_items = 8 * options.propagate_items;
    }
    return options;
  }

  // ------------------------------------------------------------- writers

  /// This thread's Local for this instance, claiming a slot on first
  /// touch; nullptr when every slot is taken (overflow path).
  Local* AcquireLocal(Shared& sh) const {
    void* slot = concurrent_internal::TlsSlotRegistry::This().Find(
        sh.instance_id);
    if (slot != nullptr) return &static_cast<Slot*>(slot)->local;
    return AcquireLocalSlow(sh);
  }

  Local* AcquireLocalSlow(Shared& sh) const {
    for (std::unique_ptr<Slot>& slot : sh.slots) {
      bool expected = false;
      if (!slot->claimed.load(std::memory_order_relaxed) &&
          slot->claimed.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
        Local& local = slot->local;
        local.sketch.emplace(sh.prototype);
        local.buffer.clear();
        local.buffer.reserve(sh.options.buffer_items);
        local.pending = 0;
        concurrent_internal::TlsSlotRegistry::This().Bind(
            {sh.instance_id, std::weak_ptr<void>(shared_), slot.get(),
             &ThreadExitHook});
        return &local;
      }
    }
    return nullptr;
  }

  /// Thread-exit: fold the thread's residual state and free its slot for
  /// the next thread — the fix for the old design's first-touch token
  /// leak, where exiting threads kept their stripe token forever.
  static void ThreadExitHook(const std::shared_ptr<void>& state, void* slot) {
    Shared& sh = *static_cast<Shared*>(state.get());
    Slot& s = *static_cast<Slot*>(slot);
    ReleaseSlot(sh, s);
  }

  static void ReleaseSlot(Shared& sh, Slot& slot) {
    Local& local = slot.local;
    if (!local.buffer.empty()) DrainBuffer(local);
    if (local.pending > 0) {
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      Fold(sh, local);
    }
    local.sketch.reset();
    local.buffer.clear();
    local.buffer.shrink_to_fit();
    slot.claimed.store(false, std::memory_order_release);
  }

  template <typename Item>
  void IngestSpan(std::span<const Item> items) {
    Shared& sh = *shared_;
    Local* local = AcquireLocal(sh);
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      (void)Write(sh, [&](S& copy) {
        ApplySpan(copy, items);
        return Status::Ok();
      });
      return;
    }
    if (!local->buffer.empty()) DrainBuffer(*local);
    ApplySpan(*local->sketch, items);
    local->pending += items.size();
    MaybePropagate(sh, *local);
  }

  template <typename Item>
  static void ApplySpan(S& sketch, std::span<const Item> items) {
    if constexpr (std::is_same_v<Item, uint64_t> && BatchItemSummary<S>) {
      (void)sketch.UpdateBatch(items);
    } else if constexpr (std::is_same_v<Item, uint64_t> &&
                         BatchInsertableSummary<S>) {
      (void)sketch.InsertBatch(items);
    } else {
      (void)sketch.UpdateBatch(items);
    }
  }

  static void DrainBuffer(Local& local) {
    ApplySpan(*local.sketch, std::span<const BufferItem>(local.buffer));
    local.pending += local.buffer.size();
    local.buffer.clear();
  }

  /// Slotless single-item fallback, called with no slot available. The
  /// item queues under the fold mutex and lands with the next
  /// propagate_items of them (or at the next Snapshot/FlushLocal), so a
  /// slotless writer pays one write per batch, not per item.
  void OverflowApply(Shared& sh, BufferItem item) {
    std::lock_guard<std::mutex> lock(sh.fold_mutex);
    sh.overflow.push_back(item);
    if (sh.overflow.size() >= sh.options.propagate_items) DrainOverflow(sh);
  }

  /// Applies the queued slotless items. fold_mutex held.
  static void DrainOverflow(Shared& sh) {
    if constexpr (kBuffered) {
      if (sh.overflow.empty()) return;
      (void)Write(sh, [&](S& copy) {
        ApplySpan(copy, std::span<const BufferItem>(sh.overflow));
        return Status::Ok();
      });
      sh.overflow.clear();
    }
  }

  // --------------------------------------------------------- propagation

  static void MaybePropagate(Shared& sh, Local& local) {
    if (local.pending < sh.options.propagate_items) return;
    if (local.pending < sh.options.max_pending_items) {
      std::unique_lock<std::mutex> lock(sh.fold_mutex, std::try_to_lock);
      if (!lock.owns_lock()) return;  // Busy: keep accumulating locally.
      Fold(sh, local);
    } else {
      // Hard staleness cap reached: this is the one place a writer waits.
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      Fold(sh, local);
    }
  }

  /// Merges the local delta into the shared summary and resets it; a
  /// refused merge is latched for Snapshot. fold_mutex held.
  static void Fold(Shared& sh, Local& local) {
    const S& delta = *local.sketch;
    if (Status s = Write(sh, [&](S& copy) { return copy.Merge(delta); });
        !s.ok()) {
      if (sh.first_error.ok()) sh.first_error = s;
      sh.has_error.store(true, std::memory_order_release);
    }
    *local.sketch = sh.prototype;
    local.pending = 0;
  }

  /// The one write path: applies `fn` to both copies (EpochPublished::
  /// Write) and refreshes the cached estimate. fold_mutex held.
  template <typename Fn>
  static Status Write(Shared& sh, Fn&& fn) {
    Status s = sh.copies.Write(fn);
    if constexpr (EstimableSummary<S>) {
      if (s.ok()) {
        sh.cached_estimate.store(
            sh.copies.Read([](const S& copy) { return copy.Estimate(); }),
            std::memory_order_release);
      }
    }
    return s;
  }

  static void FlushLocalFor(Shared& sh) {
    Local* local = nullptr;
    if (void* slot = concurrent_internal::TlsSlotRegistry::This().Find(
            sh.instance_id)) {
      local = &static_cast<Slot*>(slot)->local;
      if (!local->buffer.empty()) DrainBuffer(*local);
    }
    std::lock_guard<std::mutex> lock(sh.fold_mutex);
    if (local != nullptr && local->pending > 0) Fold(sh, *local);
    DrainOverflow(sh);
  }

  std::shared_ptr<Shared> shared_;
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_SUMMARY_H_
