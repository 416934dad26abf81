#include "time/sliding_count_min.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/layout.h"
#include "core/wire.h"

namespace gems {

namespace {

constexpr size_t kMaxPanes = 1u << 20;

/// The ring keeps three pane-shaped matrices (prototype, closed-pane
/// merge, window memo) that no payload bytes back, so a restored shape is
/// capped: 2^22 cells is 32 MiB per matrix.
constexpr uint64_t kMaxPaneCells = uint64_t{1} << 22;

/// Fewest bytes a serialized pane of `cells` counters takes: its id and
/// length, the envelope header, Count-Min's fixed fields, and one varint
/// byte per counter.
uint64_t MinPaneBytes(uint64_t cells) {
  return 8 + 4 + kWireHeaderSize + 25 + cells;
}

}  // namespace

SlidingCountMin::SlidingCountMin(uint32_t width, uint32_t depth,
                                 uint64_t pane_width, size_t num_panes,
                                 uint64_t seed)
    : ring_(CountMinSketch(width, depth, seed, /*conservative_update=*/false,
                           SketchLayout::kFlat),
            pane_width, num_panes) {}

void SlidingCountMin::UpdateBatch(std::span<const uint64_t> items) {
  if (items.empty()) return;
  ring_.SummaryAt(ring_.last_timestamp()).UpdateBatch(items);
}

void SlidingCountMin::UpdateBatchTimed(std::span<const uint64_t> timestamps,
                                       std::span<const uint64_t> items) {
  const size_t n = std::min(timestamps.size(), items.size());
  const uint64_t pane_width = ring_.pane_width();
  size_t i = 0;
  while (i < n) {
    // Open (or clamp into) the pane the run starts in, then extend the run
    // while items keep landing in a pane no newer than the current one —
    // late timestamps clamp, so they stay in the run too.
    CountMinSketch& pane = ring_.SummaryAt(timestamps[i]);
    const uint64_t current = ring_.CurrentPaneId();
    uint64_t run_max = timestamps[i];
    size_t j = i + 1;
    while (j < n && timestamps[j] / pane_width <= current) {
      run_max = std::max(run_max, timestamps[j]);
      ++j;
    }
    pane.UpdateBatch(items.subspan(i, j - i));
    // Per-item ingest tracks the max timestamp even when it does not
    // rotate; keep the clock byte-identical.
    ring_.Advance(run_max);
    i = j;
  }
}

void SlidingCountMin::ApplyHashed(const HashedBatch& batch) {
  if (batch.empty()) return;
  if (!batch.has_timestamps()) {
    ring_.SummaryAt(ring_.last_timestamp()).UpdateBatch(batch.items());
    return;
  }
  UpdateBatchTimed(batch.timestamps(), batch.items());
}

uint64_t SlidingCountMin::Estimate(uint64_t item) const {
  const CountMinSketch& closed = ring_.ClosedMerged();
  const CountMinSketch* current = ring_.CurrentSummary();
  const uint32_t w = width();
  const uint32_t d = depth();
  // Merge is a counter-wise sum, so the windowed counter for (row, item) is
  // just closed[row][b] + current[row][b]: no merged sketch materialized.
  uint64_t best = UINT64_MAX;
  for (uint32_t row = 0; row < d; ++row) {
    const uint64_t b = closed.BucketOf(row, item);
    uint64_t counter = closed.counters()[static_cast<size_t>(row) * w + b];
    if (current != nullptr) {
      counter += current->counters()[static_cast<size_t>(row) * w + b];
    }
    best = std::min(best, counter);
  }
  return best == UINT64_MAX ? 0 : best;
}

gems::Estimate SlidingCountMin::EstimateWithBounds(uint64_t item,
                                                   double confidence) const {
  const double value = static_cast<double>(Estimate(item));
  const double eps = std::exp(1.0) / static_cast<double>(width());
  gems::Estimate e;
  e.value = value;
  e.upper = value;  // CM never underestimates.
  e.lower = std::max(0.0, value - eps * static_cast<double>(TotalWeight()));
  e.confidence = confidence;
  return e;
}

int64_t SlidingCountMin::TotalWeight() const {
  int64_t total = ring_.ClosedMerged().TotalWeight();
  if (const CountMinSketch* current = ring_.CurrentSummary()) {
    total += current->TotalWeight();
  }
  return total;
}

Status SlidingCountMin::Merge(const SlidingCountMin& other) {
  if (width() != other.width() || depth() != other.depth() ||
      seed() != other.seed()) {
    return Status::InvalidArgument(
        "sliding CM merge requires identical shape and seed");
  }
  return ring_.Merge(other.ring_);
}

void SlidingCountMin::PutPayload(ByteSink& sink) const {
  sink.PutU32(width());
  sink.PutU32(depth());
  sink.PutU64(seed());
  sink.PutU64(ring_.pane_width());
  sink.PutU32(static_cast<uint32_t>(ring_.num_panes()));
  sink.PutU8(ring_.started() ? 1 : 0);
  sink.PutU64(ring_.last_timestamp());
  sink.PutU32(static_cast<uint32_t>(ring_.NumLivePanes()));
  ring_.ForEachPane([&](uint64_t id, const CountMinSketch& pane) {
    sink.PutU64(id);
    const size_t length_at = sink.size();
    sink.PutU32(0);  // Nested envelope length, patched below.
    pane.SerializeTo(sink);
    sink.PatchU32(length_at, static_cast<uint32_t>(sink.size() - length_at - 4));
  });
}

Result<SlidingCountMin> SlidingCountMin::GetPayload(ByteReader& reader) {
  uint8_t started = 0;
  uint32_t width = 0, depth = 0, num_panes = 0, pane_count = 0;
  uint64_t seed = 0, pane_width = 0, last_timestamp = 0;
  if (Status s = reader.GetU32(&width); !s.ok()) return s;
  if (Status s = reader.GetU32(&depth); !s.ok()) return s;
  if (Status s = reader.GetU64(&seed); !s.ok()) return s;
  if (Status s = reader.GetU64(&pane_width); !s.ok()) return s;
  if (Status s = reader.GetU32(&num_panes); !s.ok()) return s;
  if (Status s = reader.GetU8(&started); !s.ok()) return s;
  if (Status s = reader.GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = reader.GetU32(&pane_count); !s.ok()) return s;
  if (width == 0 || depth == 0 ||
      static_cast<uint64_t>(width) * depth > kMaxPaneCells) {
    return Status::Corruption("sliding CM: bad shape");
  }
  if (pane_width == 0 || num_panes == 0 || num_panes > kMaxPanes) {
    return Status::Corruption("sliding CM: bad window geometry");
  }
  if (started > 1 || pane_count > num_panes ||
      (started == 0) != (pane_count == 0)) {
    return Status::Corruption("sliding CM: inconsistent ring state");
  }
  if (Status s = reader.CheckColumn(
          pane_count, MinPaneBytes(static_cast<uint64_t>(width) * depth));
      !s.ok()) {
    return s;
  }
  SlidingCountMin sketch(width, depth, pane_width, num_panes, seed);
  for (uint32_t i = 0; i < pane_count; ++i) {
    uint64_t id = 0;
    uint32_t length = 0;
    ByteSpan envelope;
    if (Status s = reader.GetU64(&id); !s.ok()) return s;
    if (Status s = reader.GetU32(&length); !s.ok()) return s;
    if (Status s = reader.GetRawView(length, &envelope); !s.ok()) return s;
    Result<CountMinSketch> pane = CountMinSketch::Deserialize(envelope);
    if (!pane.ok()) return pane.status();
    if (pane.value().width() != width || pane.value().depth() != depth ||
        pane.value().seed() != seed ||
        pane.value().layout() != SketchLayout::kFlat ||
        pane.value().conservative_update()) {
      return Status::Corruption("sliding CM: pane parameter mismatch");
    }
    if (Status s = sketch.ring_.AppendPane(id, std::move(pane).value());
        !s.ok()) {
      return s;
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("sliding CM: trailing payload bytes");
  }
  if (started != 0) {
    if (last_timestamp / pane_width != sketch.ring_.CurrentPaneId()) {
      return Status::Corruption(
          "sliding CM: clock inconsistent with newest pane");
    }
    sketch.ring_.Advance(last_timestamp);
  }
  return sketch;
}

}  // namespace gems
