#include "time/sliding_hll.h"

#include <algorithm>
#include <utility>

#include "core/wire.h"

namespace gems {

namespace {

constexpr size_t kMaxPanes = 1u << 20;

}  // namespace

SlidingHyperLogLog::SlidingHyperLogLog(int precision, uint64_t pane_width,
                                       size_t num_panes, uint64_t seed)
    : ring_(HyperLogLog(precision, seed), pane_width, num_panes) {}

void SlidingHyperLogLog::UpdateBatch(std::span<const uint64_t> items) {
  if (items.empty()) return;
  ring_.SummaryAt(ring_.last_timestamp()).UpdateBatch(items);
}

void SlidingHyperLogLog::UpdateBatchTimed(
    std::span<const uint64_t> timestamps, std::span<const uint64_t> items) {
  const size_t n = std::min(timestamps.size(), items.size());
  const uint64_t pane_width = ring_.pane_width();
  size_t i = 0;
  while (i < n) {
    // Open (or clamp into) the pane the run starts in, then extend the run
    // while items keep landing in a pane no newer than the current one —
    // late timestamps clamp, so they stay in the run too.
    HyperLogLog& pane = ring_.SummaryAt(timestamps[i]);
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

void SlidingHyperLogLog::ApplyHashed(const HashedBatch& batch) {
  if (batch.empty()) return;
  GEMS_CHECK(batch.seed() == seed());
  if (!batch.has_timestamps()) {
    ring_.SummaryAt(ring_.last_timestamp()).UpdateHashes(batch.hashes());
    return;
  }
  const std::span<const uint64_t> timestamps = batch.timestamps();
  const std::span<const uint64_t> hashes = batch.hashes();
  const uint64_t pane_width = ring_.pane_width();
  size_t i = 0;
  while (i < batch.size()) {
    HyperLogLog& pane = ring_.SummaryAt(timestamps[i]);
    const uint64_t current = ring_.CurrentPaneId();
    uint64_t run_max = timestamps[i];
    size_t j = i + 1;
    while (j < batch.size() && timestamps[j] / pane_width <= current) {
      run_max = std::max(run_max, timestamps[j]);
      ++j;
    }
    pane.UpdateHashes(hashes.subspan(i, j - i));
    ring_.Advance(run_max);
    i = j;
  }
}

Status SlidingHyperLogLog::Merge(const SlidingHyperLogLog& other) {
  if (precision() != other.precision() || seed() != other.seed()) {
    return Status::InvalidArgument(
        "sliding HLL merge requires identical precision and seed");
  }
  return ring_.Merge(other.ring_);
}

void SlidingHyperLogLog::PutPayload(ByteSink& sink) const {
  sink.PutU8(static_cast<uint8_t>(precision()));
  sink.PutU64(seed());
  sink.PutU64(ring_.pane_width());
  sink.PutU32(static_cast<uint32_t>(ring_.num_panes()));
  sink.PutU8(ring_.started() ? 1 : 0);
  sink.PutU64(ring_.last_timestamp());
  sink.PutU32(static_cast<uint32_t>(ring_.NumLivePanes()));
  ring_.ForEachPane([&](uint64_t id, const HyperLogLog& pane) {
    sink.PutU64(id);
    const size_t length_at = sink.size();
    sink.PutU32(0);  // Nested envelope length, patched below.
    pane.SerializeTo(sink);
    sink.PatchU32(length_at, static_cast<uint32_t>(sink.size() - length_at - 4));
  });
}

Result<SlidingHyperLogLog> SlidingHyperLogLog::GetPayload(ByteReader& reader) {
  uint8_t precision = 0, started = 0;
  uint64_t seed = 0, pane_width = 0, last_timestamp = 0;
  uint32_t num_panes = 0, pane_count = 0;
  if (Status s = reader.GetU8(&precision); !s.ok()) return s;
  if (Status s = reader.GetU64(&seed); !s.ok()) return s;
  if (Status s = reader.GetU64(&pane_width); !s.ok()) return s;
  if (Status s = reader.GetU32(&num_panes); !s.ok()) return s;
  if (Status s = reader.GetU8(&started); !s.ok()) return s;
  if (Status s = reader.GetU64(&last_timestamp); !s.ok()) return s;
  if (Status s = reader.GetU32(&pane_count); !s.ok()) return s;
  if (precision < 4 || precision > 18) {
    return Status::Corruption("sliding HLL: precision out of range");
  }
  if (pane_width == 0 || num_panes == 0 || num_panes > kMaxPanes) {
    return Status::Corruption("sliding HLL: bad window geometry");
  }
  if (started > 1 || pane_count > num_panes ||
      (started == 0) != (pane_count == 0)) {
    return Status::Corruption("sliding HLL: inconsistent ring state");
  }
  SlidingHyperLogLog sketch(precision, pane_width, num_panes, seed);
  for (uint32_t i = 0; i < pane_count; ++i) {
    uint64_t id = 0;
    uint32_t length = 0;
    ByteSpan envelope;
    if (Status s = reader.GetU64(&id); !s.ok()) return s;
    if (Status s = reader.GetU32(&length); !s.ok()) return s;
    if (Status s = reader.GetRawView(length, &envelope); !s.ok()) return s;
    Result<HyperLogLog> pane = HyperLogLog::Deserialize(envelope);
    if (!pane.ok()) return pane.status();
    if (pane.value().precision() != precision ||
        pane.value().seed() != seed) {
      return Status::Corruption("sliding HLL: pane parameter mismatch");
    }
    if (Status s = sketch.ring_.AppendPane(id, std::move(pane).value());
        !s.ok()) {
      return s;
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("sliding HLL: trailing payload bytes");
  }
  if (started != 0) {
    if (last_timestamp / pane_width != sketch.ring_.CurrentPaneId()) {
      return Status::Corruption(
          "sliding HLL: clock inconsistent with newest pane");
    }
    sketch.ring_.Advance(last_timestamp);
  }
  return sketch;
}

}  // namespace gems
