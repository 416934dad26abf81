// libFuzzer harness for the stream engine's checkpoint decoders:
// StreamQuery::RestoreState and MultiQueryEngine::RestoreState, then
// ingest through the group-run core (ProcessBatch), Poll, Flush and
// SerializeState on whatever state was restored. The contract under test:
// hostile checkpoint bytes yield a Status, and a restored state — however
// odd — is safe to keep running. Run under ASan/UBSan; see
// fuzz/CMakeLists.txt.
//
// Input layout: byte 0 picks the target, one of the query shapes below or
// (last) an engine holding all of them; the rest is a checkpoint image
// without its trailing XXH64 checksum. The harness appends the checksum
// itself, so mutations reach the body parser instead of dying at the
// checksum gate. Nested per-query images inside an engine image keep their
// own checksums; the StreamQuery targets cover that parser directly.
// fuzz/corpus/stream_checkpoint holds one seed per target, taken after
// ingest with closed and open windows.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/multi_query.h"
#include "engine/stream_query.h"
#include "hash/xxhash.h"

namespace {

constexpr uint64_t kSeed = 7;
// The checksum seeds of the two checkpoint containers (stream_query.cc
// and multi_query.cc).
constexpr uint64_t kQueryChecksumSeed = 0x474D5351;
constexpr uint64_t kEngineChecksumSeed = 0x4D4D5347;

/// Every aggregate x window shape, with small sketches: one unbounded
/// window, tumbling 7, sliding 12/3 and sliding 1/1.
const std::vector<gems::StreamQuery::Options>& Shapes() {
  static const std::vector<gems::StreamQuery::Options> shapes = [] {
    std::vector<gems::StreamQuery::Options> out;
    for (gems::AggregateKind aggregate :
         {gems::AggregateKind::kCountDistinct, gems::AggregateKind::kTopK,
          gems::AggregateKind::kQuantiles, gems::AggregateKind::kSum}) {
      for (auto [window_size, slide] :
           {std::pair<uint64_t, uint64_t>{0, 0}, {7, 0}, {12, 3}, {1, 1}}) {
        if (aggregate == gems::AggregateKind::kSum && slide > 0) continue;
        gems::StreamQuery::Options options;
        options.aggregate = aggregate;
        options.window_size = window_size;
        options.slide = slide;
        options.hll_precision = 4;
        options.top_k_capacity = 4;
        options.top_k = 2;
        options.kll_k = 8;
        out.push_back(options);
      }
    }
    return out;
  }();
  return shapes;
}

bool Filter(const gems::StreamEvent& event) { return event.item % 3 != 0; }

/// The engine target: every shape, plain and filtered.
void RegisterAll(gems::MultiQueryEngine& engine) {
  const gems::MultiQueryEngine::FilterId filter = engine.RegisterFilter(Filter);
  for (const gems::StreamQuery::Options& options : Shapes()) {
    engine.AddQuery(options);
    engine.AddQuery(options, std::span(&filter, 1));
  }
}

std::vector<uint8_t> WithChecksum(std::span<const uint8_t> body,
                                  uint64_t seed) {
  std::vector<uint8_t> image(body.begin(), body.end());
  const uint64_t checksum = gems::XxHash64(body.data(), body.size(), seed);
  for (int shift = 0; shift < 64; shift += 8) {
    image.push_back(static_cast<uint8_t>(checksum >> shift));
  }
  return image;
}

/// 48 events over 5 groups from `base`, crossing several boundaries of
/// every shape.
std::vector<gems::StreamEvent> Events(uint64_t base) {
  std::vector<gems::StreamEvent> events;
  for (uint64_t i = 0; i < 48; ++i) {
    events.push_back(gems::StreamEvent{base + i / 2, i % 5, i * 7 % 23,
                                       static_cast<int64_t>(i % 4)});
  }
  return events;
}

/// Timestamps at the start, past any small restored clock, and near the
/// top of the range.
constexpr uint64_t kBases[] = {0, uint64_t{1} << 20, UINT64_MAX - 64};

void DriveQuery(const gems::StreamQuery::Options& options,
                std::span<const uint8_t> body) {
  gems::StreamQuery query(options, kSeed);
  query.AddFilter(Filter);
  if (!query.RestoreState(WithChecksum(body, kQueryChecksumSeed)).ok()) {
    return;
  }
  (void)query.SerializeState();
  for (uint64_t base : kBases) {
    (void)query.ProcessBatch(Events(base));
    (void)query.Poll();
  }
  (void)query.Flush();
  (void)query.SerializeState();
}

void DriveEngine(std::span<const uint8_t> body) {
  gems::MultiQueryEngine engine(kSeed);
  RegisterAll(engine);
  if (!engine.RestoreState(WithChecksum(body, kEngineChecksumSeed)).ok()) {
    return;
  }
  (void)engine.SerializeState();
  for (uint64_t base : kBases) {
    (void)engine.ProcessBatch(Events(base));
    for (size_t q = 0; q < engine.num_queries(); ++q) (void)engine.Poll(q);
  }
  engine.Flush();
  (void)engine.SerializeState();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const std::span<const uint8_t> body(data + 1, size - 1);
  const size_t pick = data[0] % (Shapes().size() + 1);
  if (pick < Shapes().size()) {
    DriveQuery(Shapes()[pick], body);
  } else {
    DriveEngine(body);
  }
  return 0;
}
