// libFuzzer harness for the zero-copy wrap stack: arbitrary bytes go
// through SketchView::Wrap / WrapTrusted, the registry's type-erased
// Wrap + Materialize, and MergeFromView on live accumulators. The
// contract under test is the wire module's: hostile input yields a
// Status (kCorruption, kInvalidArgument), never a crash, OOB read, or
// silently-garbage sketch. For the five families whose view merge reads
// the wrapped payload in place, a view must also merge exactly as
// decode-then-merge does; the harness aborts on any difference. Run under
// ASan/UBSan; see fuzz/CMakeLists.txt.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/registry.h"
#include "core/summary.h"
#include "core/view.h"
#include "frequency/space_saving.h"
#include "view_merge_accumulators.h"

namespace {

/// The zero-copy merge of a view against decode-then-merge: the same
/// status code, on success the same bytes, on failure an accumulator left
/// as it was. Any difference aborts. A verified view is checked against
/// Deserialize; a trusted one, whose checksum was never read, against
/// GetPayload, the same decode without the checksum.
template <typename S>
void CheckViewMergeParity(const S& base, const gems::SketchView& view,
                          bool verified) {
  gems::Result<gems::View<S>> typed = gems::View<S>::FromSketchView(view);
  if (!typed.ok()) return;
  S by_view = base;
  const gems::Status via_view = gems::MergeFromView(by_view, typed.value());
  S by_merge = base;
  gems::ByteReader payload = view.PayloadReader();
  gems::Result<S> peer =
      verified ? S::Deserialize(view.envelope()) : S::GetPayload(payload);
  const gems::Status via_merge =
      peer.ok() ? by_merge.Merge(peer.value()) : peer.status();
  const bool agree =
      via_view.code() == via_merge.code() &&
      by_view.Serialize() ==
          (via_view.ok() ? by_merge : base).Serialize();
  if (!agree) {
    std::fprintf(stderr,
                 "fuzz_wire_view: %s view merge disagrees: view %s, "
                 "decode+merge %s\n",
                 view.type_name(), via_view.ToString().c_str(),
                 via_merge.ToString().c_str());
    std::abort();
  }
}

// Above 128 slots SpaceSaving keeps a slot index (hash table plus min-count
// run) that every merge drops. After each merge, capacity + 1 distinct
// items force at least one eviction, so restored hostile-but-valid
// counts reach the table rebuild and also the run rebuild and pop.
constexpr size_t kSsCapacity = 1024;

gems::SpaceSaving& SsAccumulator() {
  static gems::SpaceSaving ss(kSsCapacity);
  return ss;
}

void SsEvict() {
  // Without an eviction every one of capacity + 1 distinct items would end
  // up tracked, which cannot fit.
  static uint64_t next_item = 0;
  gems::SpaceSaving& ss = SsAccumulator();
  if (ss.TotalWeight() > INT64_MAX - static_cast<int64_t>(kSsCapacity + 1)) {
    return;
  }
  for (size_t i = 0; i <= kSsCapacity; ++i) ss.Update(next_item++);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  gems::RegisterBuiltinSketches();
  const gems::ByteSpan bytes(data, size);

  // Untyped wrap, both verification levels.
  gems::Result<gems::SketchView> view = gems::SketchView::Wrap(bytes);
  gems::Result<gems::SketchView> trusted = gems::SketchView::WrapTrusted(bytes);
  for (const auto* v : {&view, &trusted}) {
    if (!v->ok()) continue;
    (void)v->value().type_name();
    (void)v->value().payload();
  }

  // Type-erased wrap + materialize through the registry.
  gems::Result<gems::AnySketchView> any =
      gems::SketchRegistry::Global().Wrap(bytes);
  if (any.ok()) {
    gems::Result<gems::AnySketch> sketch = any.value().Materialize();
    if (sketch.ok()) (void)sketch.value().EstimateSummary();
  }

  // Status parity of the in-place view merges, at both verification
  // levels.
  static const gems::fuzzing::ViewMergeAccumulators acc;
  for (const auto* v : {&view, &trusted}) {
    if (!v->ok()) continue;
    const bool verified = v == &view;
    CheckViewMergeParity(acc.hll, v->value(), verified);
    CheckViewMergeParity(acc.kmv, v->value(), verified);
    CheckViewMergeParity(acc.count_min, v->value(), verified);
    CheckViewMergeParity(acc.count_min_blocked, v->value(), verified);
    CheckViewMergeParity(acc.count_sketch, v->value(), verified);
    CheckViewMergeParity(acc.count_sketch_blocked, v->value(), verified);
    CheckViewMergeParity(acc.bloom, v->value(), verified);
  }

  // A live SpaceSaving accumulator that keeps absorbing merges. Type
  // confusion, shape mismatches, truncation and over-long lengths must all
  // come back as Status; WrapTrusted additionally feeds payloads whose
  // checksum was never checked, so the structural bounds checks stand
  // alone.
  for (const auto* v : {&view, &trusted}) {
    if (!v->ok()) continue;
    auto ss_view =
        gems::View<gems::SpaceSaving>::FromSketchView(v->value());
    if (ss_view.ok() &&
        gems::MergeFromView(SsAccumulator(), ss_view.value()).ok()) {
      SsEvict();
    }
  }
  return 0;
}
