#ifndef GEMS_CORE_REGISTRY_H_
#define GEMS_CORE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/io.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"

/// \file
/// Type-erased sketch handling: the piece that lets the engine, the
/// distributed aggregation paths, and the CLI store, ship, and merge
/// heterogeneous sketches without knowing concrete types — the property
/// that made mergeable summaries infrastructure.
///
/// AnySketch is a value-semantic type-erased handle over any registered
/// sketch. SketchRegistry maps the wire format's SketchTypeId to thunks
/// that deserialize envelope bytes into an AnySketch, so a consumer
/// holding opaque bytes (a file, a network message, a checkpoint entry)
/// can reconstruct and merge the sketch by reading the type tag alone.

namespace gems {

/// A summary whose Update takes no argument we can synthesize (e.g. graph
/// sketches updated edge-by-edge) still round-trips and merges through
/// AnySketch; only Update(u64) reports Unimplemented for it.
template <typename S>
concept InsertableSummary = requires(S s, uint64_t item) {
  { s.Insert(item) };
};

/// Pure event counters (Morris) have no notion of an item at all; a
/// type-erased Update(item) just counts the event.
template <typename S>
concept IncrementableSummary = requires(S s) {
  { s.Increment() };
};

/// Construction parameters for the timed sketch family, carried through
/// the registry's by-name factories and the gemsd CREATE path. Zero-valued
/// fields mean "library default"; which fields a type consumes is up to its
/// make_timed thunk (window types read pane_width/num_panes, decayed types
/// read half_life).
struct TimedSketchParams {
  uint64_t pane_width = 0;
  uint32_t num_panes = 0;
  double half_life = 0.0;
};

/// Type-erased, copyable handle to a registered sketch instance.
class AnySketch {
 public:
  /// An empty handle; every operation fails until assigned from
  /// SketchRegistry::Deserialize or AnySketch::Make.
  AnySketch() = default;

  /// Wraps a concrete sketch. `estimate` renders a one-line human-readable
  /// summary of the sketch's current estimate (used by the CLI).
  template <typename S>
    requires SerializableSummary<S>
  static AnySketch Make(SketchTypeId type,
                        std::function<std::string(const S&)> estimate,
                        S sketch) {
    AnySketch any;
    any.type_ = type;
    any.impl_ = std::make_shared<Model<S>>(std::move(sketch),
                                           std::move(estimate));
    return any;
  }

  bool has_value() const { return impl_ != nullptr; }
  SketchTypeId type() const { return type_; }
  const char* type_name() const {
    return has_value() ? SketchTypeName(type_) : "empty";
  }

  /// True when another handle shares this one's state, so the next
  /// mutation clones it first (copy-on-write).
  bool shares_state() const {
    return impl_ != nullptr && impl_.use_count() > 1;
  }

  /// Feeds one 64-bit item. Item sketches take it directly, weighted
  /// sketches with weight 1, value (quantile) sketches as a double,
  /// membership filters via Insert, and plain counters via Increment.
  /// Sketches with none of those update shapes (e.g. AGM edge sketches)
  /// return kUnimplemented.
  Status Update(uint64_t item);

  /// Feeds a batch of 64-bit items. Dispatches to the sketch's native
  /// batch entry point (UpdateBatch / InsertBatch) when it has one —
  /// value sketches get the items converted to doubles — and falls back
  /// to the per-item Update loop otherwise. Same status semantics as
  /// Update().
  Status UpdateBatch(std::span<const uint64_t> items);

  /// Feeds a batch of timestamped items (parallel spans, sizes must
  /// match). Timed sketches segment by pane / decay run; untimed sketches
  /// ignore the timestamps and take the items through UpdateBatch — so a
  /// mixed keyspace can be fed from one timestamped ingest path.
  Status UpdateBatchTimed(std::span<const uint64_t> timestamps,
                          std::span<const uint64_t> items);

  /// Advances a timed sketch's clock without adding data (rotating panes,
  /// decaying counts). kUnimplemented for sketches without a time
  /// dimension.
  Status Advance(uint64_t now);

  /// Merges another handle of the same sketch type into this one.
  /// Mismatched or empty handles are kInvalidArgument; sketch types
  /// without a Merge (e.g. Greenwald-Khanna) are kUnimplemented.
  Status Merge(const AnySketch& other);

  /// Merges a wrapped serialized peer through gems::MergeFromView (zero
  /// copy where the concrete type has it, materialize-then-merge
  /// otherwise). Type-tag mismatches are kInvalidArgument, same as Merge.
  Status MergeFromView(const SketchView& view);

  /// Serializes to the standard wire envelope (empty vector if empty).
  std::vector<uint8_t> Serialize() const;

  /// Appends the wire envelope into a caller-owned buffer. Byte-identical
  /// to Serialize(); appends nothing for an empty handle.
  void SerializeTo(ByteSink& sink) const;

  /// One-line human-readable summary of the sketch's current estimate.
  std::string EstimateSummary() const;

  /// Typed whole-sketch estimate with a confidence interval — the machine
  /// answer the gemsd QUERY path serves. Families with the unified
  /// EstimateWithBounds(confidence) surface return the full interval;
  /// families with only a point Estimate() return a degenerate interval
  /// (lower == upper == value, confidence 0); families with no global
  /// estimate (frequency sketches, filters) are kUnimplemented.
  Result<gems::Estimate> EstimateWithBounds(double confidence = 0.95) const;

  /// Typed per-item estimate for the frequency families
  /// (`EstimateWithBounds(item, confidence)` or `Estimate(item)`), with
  /// the same degenerate-interval fallback. kUnimplemented for families
  /// without a per-item query.
  Result<gems::Estimate> EstimateItemWithBounds(uint64_t item,
                                                double confidence = 0.95) const;

  /// Borrowed pointer to the concrete sketch, or nullptr if this handle is
  /// empty or holds a different type. The handle keeps ownership.
  template <typename S>
  const S* As() const {
    if (!has_value()) return nullptr;
    return static_cast<const S*>(impl_->Raw(TypeKey<S>()));
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual Status Update(uint64_t item) = 0;
    virtual Status UpdateBatch(std::span<const uint64_t> items) = 0;
    virtual Status UpdateBatchTimed(std::span<const uint64_t> timestamps,
                                    std::span<const uint64_t> items) = 0;
    virtual Status Advance(uint64_t now) = 0;
    virtual Status MergeFrom(const Concept& other) = 0;
    virtual Status MergeFromView(const SketchView& view) = 0;
    virtual void SerializeTo(ByteSink& sink) const = 0;
    virtual std::string EstimateSummary() const = 0;
    virtual Result<gems::Estimate> EstimateWithBounds(
        double confidence) const = 0;
    virtual Result<gems::Estimate> EstimateItemWithBounds(
        uint64_t item, double confidence) const = 0;
    virtual std::shared_ptr<Concept> Clone() const = 0;
    virtual const void* Raw(const void* type_key) const = 0;
  };

  /// One static byte per instantiated S; its address is a cheap
  /// RTTI-independent type key for As<S>().
  template <typename S>
  static const void* TypeKey() {
    static const char key = 0;
    return &key;
  }

  template <typename S>
  struct Model final : Concept {
    Model(S sketch, std::function<std::string(const S&)> estimate)
        : sketch(std::move(sketch)), estimate(std::move(estimate)) {}

    Status Update(uint64_t item) override {
      if constexpr (ItemSummary<S>) {
        sketch.Update(item);
      } else if constexpr (WeightedItemSummary<S>) {
        sketch.Update(item, 1);
      } else if constexpr (ValueSummary<S>) {
        sketch.Update(static_cast<double>(item));
      } else if constexpr (InsertableSummary<S>) {
        sketch.Insert(item);
      } else if constexpr (IncrementableSummary<S>) {
        sketch.Increment();
      } else {
        return Status::Unimplemented(
            "sketch type does not accept single-item updates");
      }
      return Status::Ok();
    }

    Status UpdateBatch(std::span<const uint64_t> items) override {
      if constexpr (BatchItemSummary<S>) {
        sketch.UpdateBatch(items);
      } else if constexpr (BatchInsertableSummary<S>) {
        sketch.InsertBatch(items);
      } else if constexpr (BatchValueSummary<S>) {
        std::vector<double> values;
        values.reserve(items.size());
        for (uint64_t item : items) {
          values.push_back(static_cast<double>(item));
        }
        sketch.UpdateBatch(values);
      } else {
        // No native batch path: fall back to the per-item loop (this also
        // surfaces kUnimplemented for sketches with no update shape).
        for (uint64_t item : items) {
          if (Status s = Update(item); !s.ok()) return s;
        }
      }
      return Status::Ok();
    }

    Status UpdateBatchTimed(std::span<const uint64_t> timestamps,
                            std::span<const uint64_t> items) override {
      if constexpr (BatchTimedItemSummary<S>) {
        sketch.UpdateBatchTimed(timestamps, items);
        return Status::Ok();
      } else if constexpr (TimedItemSummary<S>) {
        for (size_t i = 0; i < items.size(); ++i) {
          sketch.UpdateAt(timestamps[i], items[i]);
        }
        return Status::Ok();
      } else {
        // Untimed sketch: the timestamps carry no meaning for it; take the
        // items through the ordinary batch path.
        return UpdateBatch(items);
      }
    }

    Status Advance(uint64_t now) override {
      if constexpr (TimedSummary<S>) {
        sketch.Advance(now);
        return Status::Ok();
      } else {
        return Status::Unimplemented("sketch type has no time dimension");
      }
    }

    Status MergeFrom(const Concept& other) override {
      if constexpr (MergeableSummary<S>) {
        // The caller (AnySketch::Merge) has already checked the type tags,
        // so the downcast is safe.
        return sketch.Merge(static_cast<const Model<S>&>(other).sketch);
      } else {
        return Status::Unimplemented("sketch type has no merge operation");
      }
    }

    Status MergeFromView(const SketchView& view) override {
      if constexpr (MergeableSummary<S>) {
        Result<View<S>> typed = View<S>::FromSketchView(view);
        if (!typed.ok()) return typed.status();
        return gems::MergeFromView(sketch, typed.value());
      } else {
        return Status::Unimplemented("sketch type has no merge operation");
      }
    }

    void SerializeTo(ByteSink& sink) const override {
      sketch.SerializeTo(sink);
    }

    std::string EstimateSummary() const override { return estimate(sketch); }

    Result<gems::Estimate> EstimateWithBounds(
        double confidence) const override {
      if constexpr (BoundedPointEstimableSummary<S>) {
        return sketch.EstimateWithBounds(confidence);
      } else if constexpr (EstimableSummary<S>) {
        const double value = static_cast<double>(sketch.Estimate());
        return gems::Estimate{value, value, value, 0.0};
      } else {
        return Status::Unimplemented(
            "sketch type has no whole-sketch estimate");
      }
    }

    Result<gems::Estimate> EstimateItemWithBounds(
        uint64_t item, double confidence) const override {
      if constexpr (ItemBoundedEstimableSummary<S>) {
        return sketch.EstimateWithBounds(item, confidence);
      } else if constexpr (ItemEstimableSummary<S>) {
        const double value = static_cast<double>(sketch.Estimate(item));
        return gems::Estimate{value, value, value, 0.0};
      } else {
        return Status::Unimplemented("sketch type has no per-item estimate");
      }
    }

    std::shared_ptr<Concept> Clone() const override {
      return std::make_shared<Model<S>>(sketch, estimate);
    }

    const void* Raw(const void* type_key) const override {
      return type_key == TypeKey<S>() ? &sketch : nullptr;
    }

    S sketch;
    std::function<std::string(const S&)> estimate;
  };

  /// Copy-on-write: mutating operations clone when the state is shared.
  void EnsureUnique() {
    if (shares_state()) impl_ = impl_->Clone();
  }

  SketchTypeId type_{};
  std::shared_ptr<Concept> impl_;
};

class AnySketchView;

/// Maps wire-format type ids to deserialization thunks. Thread-safe.
class SketchRegistry {
 public:
  struct Entry {
    /// Stable lowercase name, matching SketchTypeName.
    std::string name;
    /// Parses a full envelope (header included) of this type. Takes a
    /// borrowed span so registry consumers never copy bytes to dispatch.
    std::function<Result<AnySketch>(ByteSpan)> deserialize;
    /// Constructs an empty sketch with library-default parameters, for
    /// consumers that build sketches by name (CLI, tests). May be null.
    std::function<AnySketch()> make_default;
    /// Constructs an empty sketch from window/decay parameters (zero-valued
    /// fields fall back to library defaults; invalid combinations are
    /// kInvalidArgument). Null for sketches without a time dimension.
    std::function<Result<AnySketch>(const TimedSketchParams&)> make_timed;
  };

  /// The process-wide registry. Built-in sketches are added by
  /// RegisterBuiltinSketches(), not automatically.
  static SketchRegistry& Global();

  /// Registers a type; kInvalidArgument if the id is already taken.
  Status Register(SketchTypeId id, Entry entry);

  /// Looks up an entry; nullptr if the id was never registered.
  const Entry* Find(SketchTypeId id) const;

  /// Validates the envelope, reads its type tag, and dispatches to the
  /// registered deserializer. An id that passes envelope validation but
  /// was never registered is kCorruption (bytes we cannot interpret).
  Result<AnySketch> Deserialize(std::span<const uint8_t> bytes) const;

  /// Validates the envelope and wraps it as a type-erased view WITHOUT
  /// materializing the sketch — the dispatch-by-tag analogue of
  /// SketchView::Wrap. Same borrowing rules: the returned view is valid
  /// only while `bytes` outlives it. An unregistered (but valid) type id
  /// is kCorruption, matching Deserialize.
  Result<AnySketchView> Wrap(ByteSpan bytes) const;

  /// Checksum-skipping wrap for bytes this process (or a trusted peer on
  /// the same failure domain) produced — the dispatch-by-tag analogue of
  /// SketchView::WrapTrusted. All structural checks still run. The gemsd
  /// MERGE fast path uses this for envelopes from trusted peers; bytes
  /// from disk or an untrusted network hop should go through Wrap.
  Result<AnySketchView> WrapTrusted(ByteSpan bytes) const;

  /// Finds a registered type by its stable name; nullptr if absent.
  const Entry* FindByName(const std::string& name) const;

  /// All registered ids, ascending.
  std::vector<SketchTypeId> RegisteredTypes() const;

 private:
  Result<AnySketchView> WrapImpl(Result<SketchView> view) const;

  mutable std::mutex mutex_;
  std::map<SketchTypeId, Entry> entries_;
};

/// Type-erased analogue of View<S>: a validated, non-owning wrap of one
/// serialized envelope plus the registry entry its type tag resolved to.
/// Metadata (type, version, payload size) reads straight off the wrapped
/// buffer; Materialize() is the one operation that allocates. Borrows the
/// wrapped bytes — same lifetime rules as SketchView.
class AnySketchView {
 public:
  AnySketchView() = default;

  bool has_value() const { return entry_ != nullptr; }
  SketchTypeId type() const { return view_.type(); }
  const char* type_name() const { return view_.type_name(); }
  uint8_t version() const { return view_.version(); }
  size_t payload_size() const { return view_.payload_size(); }
  ByteSpan envelope() const { return view_.envelope(); }

  /// The untyped view, e.g. for AnySketch::MergeFromView.
  const SketchView& sketch_view() const { return view_; }

  /// Builds a heap sketch from the wrapped bytes via the registered
  /// deserializer — the deliberate escape hatch out of the zero-copy path.
  Result<AnySketch> Materialize() const {
    if (!has_value()) {
      return Status::FailedPrecondition("materialize on an empty view");
    }
    return entry_->deserialize(view_.envelope());
  }

  /// One-line human-readable estimate, rendered by materializing a
  /// temporary (views are read-only wraps; estimates need the sketch).
  Result<std::string> EstimateSummary() const {
    Result<AnySketch> sketch = Materialize();
    if (!sketch.ok()) return sketch.status();
    return sketch.value().EstimateSummary();
  }

 private:
  friend class SketchRegistry;
  SketchView view_;
  const SketchRegistry::Entry* entry_ = nullptr;
};

/// Registers a concrete sketch type under its S::kTypeId: its envelope
/// deserializer, a default-parameter factory, and an estimate renderer.
template <typename S>
  requires SerializableSummary<S>
Status RegisterSketchType(
    SketchRegistry& registry,
    std::function<std::string(const S&)> estimate,
    std::function<S()> make_default,
    std::function<Result<S>(const TimedSketchParams&)> make_timed = nullptr) {
  constexpr SketchTypeId id = S::kTypeId;
  SketchRegistry::Entry entry;
  entry.name = SketchTypeName(id);
  entry.deserialize =
      [id, estimate](std::span<const uint8_t> bytes) -> Result<AnySketch> {
    Result<S> parsed = S::Deserialize(bytes);
    if (!parsed.ok()) return parsed.status();
    return AnySketch::Make<S>(id, estimate, std::move(parsed).value());
  };
  if (make_default) {
    entry.make_default = [id, estimate, make_default]() {
      return AnySketch::Make<S>(id, estimate, make_default());
    };
  }
  if (make_timed) {
    entry.make_timed =
        [id, estimate, make_timed](
            const TimedSketchParams& params) -> Result<AnySketch> {
      Result<S> made = make_timed(params);
      if (!made.ok()) return made.status();
      return AnySketch::Make<S>(id, estimate, std::move(made).value());
    };
  }
  return registry.Register(id, std::move(entry));
}

/// Registers every built-in serializable sketch with the global registry.
/// Idempotent and thread-safe; call before using SketchRegistry::Global()
/// to deserialize unknown bytes. (Defined in builtin_registry.cc, which
/// lives in the gems_registry target so the core library itself does not
/// depend on the sketch families.)
void RegisterBuiltinSketches();

}  // namespace gems

#endif  // GEMS_CORE_REGISTRY_H_
