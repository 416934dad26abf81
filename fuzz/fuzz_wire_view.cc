// libFuzzer harness for the zero-copy wrap stack: arbitrary bytes go
// through SketchView::Wrap / WrapTrusted, the registry's type-erased
// Wrap + Materialize, and MergeFromView on a live accumulator. The
// contract under test is the wire module's: hostile input yields a
// Status (kCorruption, kInvalidArgument), never a crash, OOB read, or
// silently-garbage sketch. Run under ASan/UBSan; see fuzz/CMakeLists.txt.

#include <cstddef>
#include <cstdint>

#include "cardinality/hyperloglog.h"
#include "core/registry.h"
#include "core/view.h"
#include "frequency/count_min.h"
#include "frequency/space_saving.h"

namespace {

// One live accumulator per family with an in-place MergeFromView, so the
// fuzzer exercises the payload walks (raw register block, varint counter
// grid, SpaceSaving entry list) and their atomicity guards, not just
// envelope validation.
gems::HyperLogLog& HllAccumulator() {
  static gems::HyperLogLog hll(10, 7);
  return hll;
}

gems::CountMinSketch& CmAccumulator() {
  static gems::CountMinSketch cm(64, 3, 7);
  return cm;
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

  // Typed merge-from-view into live accumulators. Type confusion, shape
  // mismatches, truncation and over-long lengths must all come back as
  // Status; WrapTrusted additionally feeds payloads whose checksum was
  // never checked, so the structural bounds checks stand alone.
  for (const auto* v : {&view, &trusted}) {
    if (!v->ok()) continue;
    auto hll_view =
        gems::View<gems::HyperLogLog>::FromSketchView(v->value());
    if (hll_view.ok()) {
      (void)HllAccumulator().MergeFromView(hll_view.value());
    }
    auto cm_view =
        gems::View<gems::CountMinSketch>::FromSketchView(v->value());
    if (cm_view.ok()) {
      (void)CmAccumulator().MergeFromView(cm_view.value());
    }
    auto ss_view =
        gems::View<gems::SpaceSaving>::FromSketchView(v->value());
    if (ss_view.ok() && SsAccumulator().MergeFromView(ss_view.value()).ok()) {
      SsEvict();
    }
  }
  return 0;
}
