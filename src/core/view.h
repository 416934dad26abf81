#ifndef GEMS_CORE_VIEW_H_
#define GEMS_CORE_VIEW_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "core/io.h"
#include "core/wire.h"

/// \file
/// Zero-copy read-only wraps of serialized sketches.
///
/// The production lesson behind Apache DataSketches' adoption — and the
/// read-side primitive "Fast Concurrent Data Sketches" motivates — is that
/// serialized sketches should be *wrapped*, not loaded: a query or merge
/// engine holding bytes (a file page, a network buffer, an arena slot)
/// validates them once and then reads straight out of the buffer, paying no
/// allocation and no copy per envelope.
///
/// SketchView is that wrap for one wire envelope: validation (magic, type,
/// version, length, checksum) happens exactly once in Wrap(); everything
/// after is pointer arithmetic into the caller's buffer. View<S> adds the
/// static type: the handle a concrete sketch's MergeFromView consumes, with
/// Materialize() as the escape hatch back to a heap sketch.
///
/// Lifetime rule: views BORROW. A view is valid only while the wrapped
/// bytes outlive it and stay unmodified; wrap-then-mutate-buffer is the
/// classic bug. Materialize (or merge into an owning accumulator) before
/// the buffer goes away.

namespace gems {

/// A validated, non-owning wrap of one serialized sketch envelope.
/// Cheap to copy (two pointers and the parsed header fields).
class SketchView {
 public:
  SketchView() = default;

  /// Validates the envelope (same checks as ParseEnvelope, checksum
  /// included) and wraps it. The bytes are borrowed, not copied.
  static Result<SketchView> Wrap(ByteSpan envelope) {
    return WrapImpl(envelope, EnvelopeVerify::kFull);
  }

  /// Wrap for bytes this process produced itself (combiner fan-in, shard
  /// merge, arena slices from FinishInto): all structural checks — magic,
  /// type, version, flags, and the length bounds that make payload access
  /// safe — still run, but the XXH64 payload checksum is skipped. On flat
  /// sketches the checksum pass costs more than the merge itself, so
  /// trusted fan-in paths use this. Never use it on bytes from disk or
  /// the network; a flipped payload bit would merge silently.
  static Result<SketchView> WrapTrusted(ByteSpan envelope) {
    return WrapImpl(envelope, EnvelopeVerify::kStructural);
  }

  /// True once Wrap succeeded; a default-constructed view answers nothing.
  bool has_value() const { return meta_.payload != nullptr; }

  SketchTypeId type() const { return meta_.type; }
  const char* type_name() const { return SketchTypeName(meta_.type); }
  uint8_t version() const { return meta_.version; }
  uint8_t flags() const { return meta_.flags; }

  /// The full envelope (header + payload) this view wraps.
  ByteSpan envelope() const { return envelope_; }

  /// The sketch-specific payload inside the envelope.
  ByteSpan payload() const {
    return ByteSpan(meta_.payload, meta_.payload_size);
  }
  size_t payload_size() const { return meta_.payload_size; }

  /// A cursor positioned at the start of the payload.
  ByteReader PayloadReader() const {
    return ByteReader(meta_.payload, meta_.payload_size);
  }

 private:
  static Result<SketchView> WrapImpl(ByteSpan envelope,
                                     EnvelopeVerify verify) {
    Result<EnvelopeView> parsed = ParseEnvelope(envelope, verify);
    if (!parsed.ok()) return parsed.status();
    SketchView view;
    view.envelope_ = envelope;
    view.meta_ = parsed.value();
    return view;
  }

  ByteSpan envelope_{};
  EnvelopeView meta_{};
};

/// A statically typed wrap of a serialized S. Obtained by validating raw
/// bytes (Wrap) or by downcasting an already-validated SketchView
/// (FromSketchView — revalidates only the type tag). Same borrowing
/// lifetime rules as SketchView.
template <typename S>
class View {
 public:
  View() = default;

  static Result<View> Wrap(ByteSpan envelope) {
    Result<SketchView> view = SketchView::Wrap(envelope);
    if (!view.ok()) return view.status();
    return FromSketchView(view.value());
  }

  /// Checksum-skipping wrap for same-process bytes; see
  /// SketchView::WrapTrusted for the contract.
  static Result<View> WrapTrusted(ByteSpan envelope) {
    Result<SketchView> view = SketchView::WrapTrusted(envelope);
    if (!view.ok()) return view.status();
    return FromSketchView(view.value());
  }

  /// Typed downcast of a validated view; kCorruption on a type mismatch
  /// (the cross-type confusion case).
  static Result<View> FromSketchView(const SketchView& view) {
    if (view.type() != S::kTypeId) {
      return Status::Corruption(
          std::string("sketch view: type confusion: expected ") +
          SketchTypeName(S::kTypeId) + ", found " + view.type_name());
    }
    View typed;
    typed.view_ = view;
    return typed;
  }

  bool has_value() const { return view_.has_value(); }
  const SketchView& sketch_view() const { return view_; }
  ByteSpan envelope() const { return view_.envelope(); }
  ByteSpan payload() const { return view_.payload(); }
  size_t payload_size() const { return view_.payload_size(); }
  ByteReader PayloadReader() const { return view_.PayloadReader(); }

  /// Builds a heap sketch from the wrapped bytes — the one place a view
  /// deliberately materializes. Use when the buffer's lifetime ends or
  /// when mutation is needed.
  Result<S> Materialize() const { return S::Deserialize(view_.envelope()); }

 private:
  SketchView view_;
};

}  // namespace gems

#endif  // GEMS_CORE_VIEW_H_
