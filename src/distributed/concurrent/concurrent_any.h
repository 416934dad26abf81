#ifndef GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_ANY_H_
#define GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_ANY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/registry.h"
#include "distributed/concurrent/concurrent_summary.h"

/// \file
/// Type-erased concurrent wrapper: ConcurrentSummary over AnySketch, so
/// the engine (and the future gemsd server) can stand up a live,
/// queryable-under-ingest sketch knowing only its registry name. The
/// wrapper keeps two copies of the sketch and applies every write to both
/// in place (see epoch.h), so steady-state writes clone nothing. AnySketch
/// is copy-on-write, and the two copies start out sharing the prototype's
/// state: a copy that still shares its state (a fresh key, a restored
/// checkpoint, a copy a held Snapshot shares) is brought up to date by
/// assigning it a shared handle to the other copy rather than by replaying
/// the write, and the next write to it clones once. Pinned readers always
/// see an immutable version.

namespace gems {

/// A movable handle to a wait-free concurrent type-erased sketch.
/// Construction validates the prototype up front, so the unchecked Update
/// hot path can drop per-item Status plumbing.
class ConcurrentAnySketch {
 public:
  using Options = ConcurrentSummary<AnySketch>::Options;

  ConcurrentAnySketch() = default;
  ConcurrentAnySketch(ConcurrentAnySketch&&) = default;
  ConcurrentAnySketch& operator=(ConcurrentAnySketch&&) = default;

  /// Wraps a concrete prototype handle. The prototype must be non-empty
  /// and accept 64-bit item updates (the only update shape the type-erased
  /// surface carries).
  static Result<ConcurrentAnySketch> Make(AnySketch prototype,
                                          Options options = Options{}) {
    if (!prototype.has_value()) {
      return Status::InvalidArgument(
          "concurrent wrapper needs a non-empty prototype sketch");
    }
    // Probe the update shape on a throwaway copy so a sketch family with
    // no Update(u64) (e.g. edge-sketches) fails here, not silently later.
    AnySketch probe = prototype;
    if (Status s = probe.Update(0); !s.ok()) return s;
    ConcurrentAnySketch any;
    any.prototype_type_ = prototype.type();
    any.impl_ = std::make_unique<ConcurrentSummary<AnySketch>>(
        prototype, options);
    return any;
  }

  /// Builds the prototype from the registry by stable type name (e.g.
  /// "hyperloglog"), with library-default parameters. Callers must have
  /// populated the registry (RegisterBuiltinSketches) first.
  static Result<ConcurrentAnySketch> MakeByName(const std::string& name,
                                                Options options = Options{}) {
    const SketchRegistry::Entry* entry =
        SketchRegistry::Global().FindByName(name);
    if (entry == nullptr || !entry->make_default) {
      return Status::NotFound("no registered sketch type named '" + name +
                              "' with a default factory");
    }
    return Make(entry->make_default(), options);
  }

  /// Builds the prototype from the registry by stable type name with
  /// explicit window/decay parameters — the gemsd CREATE path for the time
  /// family. kNotFound for names without a timed factory; parameter
  /// validation surfaces as the factory's kInvalidArgument.
  static Result<ConcurrentAnySketch> MakeTimedByName(
      const std::string& name, const TimedSketchParams& params,
      Options options = Options{}) {
    const SketchRegistry::Entry* entry =
        SketchRegistry::Global().FindByName(name);
    if (entry == nullptr || !entry->make_timed) {
      return Status::NotFound("no registered sketch type named '" + name +
                              "' with a timed factory");
    }
    Result<AnySketch> made = entry->make_timed(params);
    if (!made.ok()) return made.status();
    return Make(std::move(made).value(), options);
  }

  bool has_value() const { return impl_ != nullptr; }
  SketchTypeId type() const { return prototype_type_; }

  /// Thread-safe wait-free item update (buffered; see ConcurrentSummary).
  void Update(uint64_t item) { impl_->Update(item); }

  /// Thread-safe batch update through AnySketch's native batch dispatch.
  void UpdateBatch(std::span<const uint64_t> items) {
    impl_->UpdateBatch(items);
  }

  /// Folds a batch straight into the shared state under the fold mutex,
  /// visible to readers on return — the request-scoped ingest path for
  /// servers fronting very many keys. The per-thread slot machinery binds
  /// one TLS entry per (thread, instance) and its lookup is linear in the
  /// instances a thread has touched, which is exactly wrong for a daemon
  /// whose threads touch millions of keys; this path skips it entirely
  /// while still going through the batched (SIMD-dispatched) UpdateBatch
  /// fast path. Ack-visible: once this returns, every subsequent query on
  /// any thread sees the items.
  Status ApplyBatch(std::span<const uint64_t> items) {
    return impl_->FoldExternal(
        [&](AnySketch& copy) { return copy.UpdateBatch(items); });
  }

  /// Folds a timestamped batch into the shared state — the timed analogue
  /// of ApplyBatch. Pane rotation and decay happen inside the fold, so the
  /// new epoch is published atomically: readers see
  /// either the pre-rotation or post-rotation state, and Estimate() stays
  /// one atomic load throughout. Untimed sketches ingest the items and
  /// ignore the timestamps.
  Status ApplyBatchTimed(std::span<const uint64_t> timestamps,
                         std::span<const uint64_t> items) {
    return impl_->FoldExternal([&](AnySketch& copy) {
      return copy.UpdateBatchTimed(timestamps, items);
    });
  }

  /// Advances a timed sketch's clock (rotating/expiring panes, decaying
  /// counts) and publishes the result as a new epoch. kUnimplemented for
  /// untimed sketches.
  Status Advance(uint64_t now) {
    return impl_->FoldExternal(
        [&](AnySketch& copy) { return copy.Advance(now); });
  }

  /// Runs `fn(const AnySketch&)` against the pinned active copy and
  /// returns its result; same rules as ConcurrentSummary::Query (no
  /// retained reference, no write to this sketch from inside `fn`).
  template <typename Fn>
  auto Query(Fn&& fn) const {
    return impl_->Query(std::forward<Fn>(fn));
  }

  /// Wait-free one-line estimate of the published version.
  std::string EstimateSummary() const {
    return impl_->Query(
        [](const AnySketch& s) { return s.EstimateSummary(); });
  }

  /// Wait-free typed whole-sketch estimate with bounds, read from the
  /// epoch-published version — never blocks or is blocked by ingest.
  /// kUnimplemented for families without a global estimate.
  Result<gems::Estimate> EstimateWithBounds(double confidence = 0.95) const {
    return impl_->Query([&](const AnySketch& s) {
      return s.EstimateWithBounds(confidence);
    });
  }

  /// Wait-free typed per-item estimate (frequency families).
  Result<gems::Estimate> EstimateItemWithBounds(
      uint64_t item, double confidence = 0.95) const {
    return impl_->Query([&](const AnySketch& s) {
      return s.EstimateItemWithBounds(item, confidence);
    });
  }

  /// Merges a wrapped serialized peer into the live state, zero-copy for
  /// families with a view merge. Type mismatches and parameter-mismatched
  /// merges surface as the sketch's own typed status; nothing is
  /// published on failure. The view's bytes are only borrowed for the
  /// duration of the call.
  Status MergeFromView(const SketchView& view) {
    if (view.type() != prototype_type_) {
      return Status::InvalidArgument(
          std::string("cannot merge sketch type ") + view.type_name() +
          " into " + SketchTypeName(prototype_type_));
    }
    return impl_->FoldExternal(
        [&](AnySketch& copy) { return copy.MergeFromView(view); });
  }

  /// Merges a materialized peer handle into the live state.
  Status Merge(const AnySketch& other) {
    return impl_->FoldExternal(
        [&](AnySketch& copy) { return copy.Merge(other); });
  }

  /// Replaces the live state wholesale — the checkpoint-restore entry
  /// point. `state` must be the same sketch type. Call before concurrent
  /// writers start (on a freshly built instance); residual deltas from
  /// earlier writers would otherwise fold into the replaced state.
  Status Reset(AnySketch state) {
    if (!state.has_value() || state.type() != prototype_type_) {
      return Status::InvalidArgument(
          "reset needs a non-empty sketch of the wrapped type");
    }
    // Copy, not move: the write may run once per copy.
    return impl_->FoldExternal([&](AnySketch& copy) {
      copy = state;
      return Status::Ok();
    });
  }

  /// Consistent bounded-staleness snapshot (read-your-writes for the
  /// calling thread); the returned handle is an independent COW copy.
  Result<AnySketch> Snapshot() const { return impl_->Snapshot(); }

  /// Publication version; monotone staleness probe.
  uint64_t epoch() const { return impl_->epoch(); }

  /// Folds and publishes the calling thread's residual state.
  void FlushLocal() const { impl_->FlushLocal(); }

 private:
  std::unique_ptr<ConcurrentSummary<AnySketch>> impl_;
  SketchTypeId prototype_type_{};
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_ANY_H_
