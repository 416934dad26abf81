// Replays the three libFuzzer harnesses without libFuzzer, so that a plain
// g++ build runs them as the `fuzz_replay` ctest. libFuzzer needs clang;
// this driver needs only the harness entry points, which the build
// renames (fuzz_<name>.cc's LLVMFuzzerTestOneInput becomes
// FuzzReplay_<name>) so that all three link into one binary.
//
//   fuzz_replay <corpus-root> [mutations-per-seed]
//
// Inputs, per harness:
//  - every file under <corpus-root>/<name>/ (a file elsewhere under the
//    root goes to all three harnesses);
//  - seeds built here: one populated envelope per registered sketch type,
//    one per view-merge parity accumulator (fuzz/view_merge_accumulators.h)
//    and the hostile envelopes of tests/hostile_envelopes.h (wire_view);
//    one request and one response frame per opcode, framed and bare
//    (protocol);
//  - a fixed, seeded batch of mutations of each seed: bit flips,
//    boundary values over 1, 4 and 8 bytes, truncations, insertions,
//    repeated chunks and splices with another seed of the same harness.
//    Mutated envelopes are re-sealed half the time (length and checksum
//    recomputed) so that mutations reach the payload decoders, not only
//    the checksum gate.
//
// A runaway allocation fails the run instead of exhausting the host: plain
// builds cap the address space at 1 GiB (RLIMIT_AS), sanitizer builds get
// ASAN_OPTIONS=max_allocation_size_mb from the ctest. A crash prints the
// input it happened on and writes it to fuzz_replay_crash.bin in the
// working directory; an exception escaping a harness fails the run.

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "core/registry.h"
#include "core/wire.h"
#include "hostile_envelopes.h"
#include "server/protocol.h"
#include "view_merge_accumulators.h"

extern "C" int FuzzReplay_wire_view(const uint8_t* data, size_t size);
extern "C" int FuzzReplay_protocol(const uint8_t* data, size_t size);
extern "C" int FuzzReplay_stream_checkpoint(const uint8_t* data, size_t size);

namespace {

using Bytes = std::vector<uint8_t>;

struct Harness {
  const char* name;
  int (*run)(const uint8_t*, size_t);
  std::vector<Bytes> seeds;
};

// What is running, for the crash handler: set before every input.
char g_current[160] = "startup";
const uint8_t* g_input = nullptr;
size_t g_input_size = 0;

void OnCrash(int sig) {
  const char prefix[] = "fuzz_replay: crashed on ";
  (void)!write(STDERR_FILENO, prefix, sizeof(prefix) - 1);
  (void)!write(STDERR_FILENO, g_current, strlen(g_current));
  (void)!write(STDERR_FILENO, "\n", 1);
  const int fd = open("fuzz_replay_crash.bin", O_WRONLY | O_CREAT | O_TRUNC,
                      0644);
  if (fd >= 0) {
    if (g_input != nullptr) (void)!write(fd, g_input, g_input_size);
    close(fd);
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

Bytes ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

/// One envelope per registered type with a default shape, fed a few
/// hundred items so the payload is not all zeros.
std::vector<Bytes> RegistryEnvelopes() {
  std::vector<Bytes> out;
  const gems::SketchRegistry& registry = gems::SketchRegistry::Global();
  for (gems::SketchTypeId id : registry.RegisteredTypes()) {
    const gems::SketchRegistry::Entry* entry = registry.Find(id);
    if (entry == nullptr || !entry->make_default) continue;
    gems::AnySketch sketch = entry->make_default();
    for (uint64_t i = 1; i <= 300; ++i) {
      (void)sketch.Update((i * 0x9E3779B97F4A7C15ull) >> 40);
    }
    out.push_back(sketch.Serialize());
  }
  return out;
}

/// One request and one response per opcode, each framed (as on the wire)
/// and bare (the body the decoders take).
std::vector<Bytes> ProtocolFrames(const Bytes& envelope) {
  using gems::server::Opcode;
  static const uint64_t kItems[] = {1, 2, 3, 0xFFFFFFFFFFFFFFFFull};
  static const uint64_t kTimestamps[] = {10, 11, 12, 13};
  std::vector<Bytes> out;
  const auto add = [&out](Bytes framed) {
    out.emplace_back(framed.begin() + 4, framed.end());
    out.push_back(std::move(framed));
  };
  for (Opcode op : {Opcode::kPing, Opcode::kCreate, Opcode::kDrop,
                    Opcode::kList, Opcode::kUpdate, Opcode::kMerge,
                    Opcode::kQuery, Opcode::kCheckpoint, Opcode::kRestore}) {
    gems::server::Request request;
    request.opcode = op;
    request.id = 42;
    request.key = "key";
    request.sketch_type = "hllpp";
    request.prefix = "ke";
    request.limit = 10;
    request.has_timed_params = op == Opcode::kCreate;
    request.pane_width = 60;
    request.num_panes = 10;
    request.half_life = 30.0;
    request.items = kItems;
    request.timestamps = kTimestamps;
    request.blob = envelope;
    request.has_item = true;
    request.item = 7;
    Bytes framed;
    gems::server::EncodeRequest(request, &framed);
    add(std::move(framed));

    gems::server::Response response;
    response.opcode = op;
    response.id = 42;
    response.query.has_estimate = true;
    response.query.summary = "distinct ~ 3";
    response.total_keys = 2;
    response.entries = {{"a", "hllpp"}, {"b", "count_min"}};
    response.blob = envelope;
    framed.clear();
    gems::server::EncodeResponse(response, &framed);
    add(std::move(framed));
  }
  return out;
}

/// Seeded mutator: one to four edits per mutant.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  Bytes Mutate(const Bytes& seed, const std::vector<Bytes>& others) {
    Bytes m = seed;
    const int edits = 1 + static_cast<int>(rng_.NextBounded(4));
    for (int e = 0; e < edits; ++e) Edit(m, others);
    return m;
  }

  bool Coin() { return rng_.NextBounded(2) == 0; }

 private:
  static constexpr uint64_t kBoundary[] = {
      0, 1, 0x7F, 0x80, 0xFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
      uint64_t{1} << 32, uint64_t{1} << 40, 0x7FFFFFFFFFFFFFFF,
      0xFFFFFFFFFFFFFFFF};

  size_t Pos(const Bytes& m) { return rng_.NextBounded(m.size()); }

  void Edit(Bytes& m, const std::vector<Bytes>& others) {
    switch (rng_.NextBounded(7)) {
      case 0:  // Flip one bit.
        if (!m.empty()) m[Pos(m)] ^= uint8_t{1} << rng_.NextBounded(8);
        break;
      case 1: {  // Boundary value over 1, 4 or 8 bytes.
        static constexpr size_t kWidths[] = {1, 4, 8};
        const size_t width = kWidths[rng_.NextBounded(3)];
        if (m.size() < width) break;
        const size_t at = rng_.NextBounded(m.size() - width + 1);
        const uint64_t v =
            kBoundary[rng_.NextBounded(std::size(kBoundary))];
        for (size_t i = 0; i < width; ++i) {
          m[at + i] = static_cast<uint8_t>(v >> (8 * i));
        }
        break;
      }
      case 2:  // Truncate.
        if (!m.empty()) m.resize(Pos(m));
        break;
      case 3: {  // Insert random bytes.
        const size_t at = m.empty() ? 0 : Pos(m);
        const size_t n = 1 + rng_.NextBounded(8);
        for (size_t i = 0; i < n; ++i) {
          m.insert(m.begin() + at, static_cast<uint8_t>(rng_.NextU64()));
        }
        break;
      }
      case 4: {  // Repeat a chunk.
        if (m.empty()) break;
        const size_t at = Pos(m);
        const size_t n = std::min<size_t>(1 + rng_.NextBounded(32),
                                          m.size() - at);
        const Bytes chunk(m.begin() + at, m.begin() + at + n);
        m.insert(m.begin() + at, chunk.begin(), chunk.end());
        break;
      }
      case 5: {  // Splice: this seed's head, another seed's tail.
        const Bytes& other = others[rng_.NextBounded(others.size())];
        if (m.empty() || other.empty()) break;
        const size_t head = Pos(m);
        const size_t tail = rng_.NextBounded(other.size());
        m.resize(head);
        m.insert(m.end(), other.begin() + tail, other.end());
        break;
      }
      default:  // Random byte.
        if (!m.empty()) m[Pos(m)] = static_cast<uint8_t>(rng_.NextU64());
        break;
    }
  }

  gems::Rng rng_;
};

/// Rebuilds an envelope's length and checksum around its (mutated)
/// payload, when its type field still names a known sketch type.
Bytes Reseal(const Bytes& m) {
  if (m.size() < gems::kWireHeaderSize) return m;
  const uint16_t type = gems::LoadLittleEndian<uint16_t>(m.data() + 4);
  if (!gems::IsKnownSketchTypeId(type)) return m;
  return gems::WrapEnvelope(static_cast<gems::SketchTypeId>(type),
                            Bytes(m.begin() + gems::kWireHeaderSize, m.end()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus-root> [mutations-per-seed]\n",
                 argv[0]);
    return 2;
  }
  const int mutations = argc > 2 ? std::atoi(argv[2]) : 2000;
  if (gems::testing::kAddressSpaceCapUsable &&
      !gems::testing::CapAddressSpace(uint64_t{1} << 30)) {
    std::perror("fuzz_replay: setrlimit(RLIMIT_AS)");
    return 2;
  }
  for (int sig : {SIGABRT, SIGSEGV, SIGILL, SIGBUS, SIGFPE}) {
    signal(sig, OnCrash);
  }

  gems::RegisterBuiltinSketches();
  std::vector<Harness> harnesses = {
      {"wire_view", FuzzReplay_wire_view, RegistryEnvelopes()},
      {"protocol", FuzzReplay_protocol, {}},
      {"stream_checkpoint", FuzzReplay_stream_checkpoint, {}},
  };
  harnesses[1].seeds = ProtocolFrames(harnesses[0].seeds.front());
  for (Bytes& envelope :
       gems::fuzzing::ViewMergeAccumulators().Envelopes()) {
    harnesses[0].seeds.push_back(std::move(envelope));
  }
  for (gems::testing::HostileEnvelope& hostile :
       gems::testing::HostileEnvelopes()) {
    harnesses[0].seeds.push_back(std::move(hostile.bytes));
  }

  size_t corpus_files = 0;
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(argv[1])) {
    if (!file.is_regular_file()) continue;
    ++corpus_files;
    const std::string dir = file.path().parent_path().filename().string();
    const Bytes bytes = ReadFile(file.path());
    for (Harness& harness : harnesses) {
      if (dir == harness.name || std::none_of(harnesses.begin(),
                                              harnesses.end(),
                                              [&dir](const Harness& h) {
                                                return dir == h.name;
                                              })) {
        harness.seeds.push_back(bytes);
      }
    }
  }

  int failures = 0;
  size_t runs = 0;
  const auto run = [&](const Harness& harness, const Bytes& input,
                       size_t seed, int mutant) {
    std::snprintf(g_current, sizeof(g_current),
                  "%s seed %zu mutant %d (%zu bytes)", harness.name, seed,
                  mutant, input.size());
    g_input = input.data();
    g_input_size = input.size();
    ++runs;
    try {
      harness.run(input.data(), input.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fuzz_replay: %s threw %s\n", g_current, e.what());
      ++failures;
    }
  };
  for (const Harness& harness : harnesses) {
    Mutator mutator(0x5EED0000 + std::strlen(harness.name));
    for (size_t s = 0; s < harness.seeds.size(); ++s) {
      run(harness, harness.seeds[s], s, -1);
      for (int k = 0; k < mutations; ++k) {
        Bytes mutant = mutator.Mutate(harness.seeds[s], harness.seeds);
        if (harness.run == FuzzReplay_wire_view && mutator.Coin()) {
          mutant = Reseal(mutant);
        }
        run(harness, mutant, s, k);
      }
    }
    std::printf("fuzz_replay: %s: %zu seeds x %d mutations\n", harness.name,
                harness.seeds.size(), mutations);
  }
  std::printf("fuzz_replay: %zu inputs (%zu corpus files), %d failures\n",
              runs, corpus_files, failures);
  return failures == 0 ? 0 : 1;
}
