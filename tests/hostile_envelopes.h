#ifndef GEMS_TESTS_HOSTILE_ENVELOPES_H_
#define GEMS_TESTS_HOSTILE_ENVELOPES_H_

#include <sys/resource.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/wire.h"

/// Well-formed envelopes (valid header, checksum and type) whose payload
/// declares the largest shape its decoder accepts and then stops: the
/// header fields are there, the body they announce is not. A decoder that
/// allocates from the header before checking the payload asks for up to
/// 2^64 bytes here; one that checks first returns kCorruption. One per
/// registered family whose header sizes anything (Morris has nothing to
/// size). Shared by wire_test and the fuzz replay driver, which seeds its
/// mutations with them.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GEMS_TESTS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GEMS_TESTS_SANITIZED 1
#endif
#endif

namespace gems::testing {

/// ASan and TSan reserve terabytes of shadow address space, so RLIMIT_AS
/// cannot cap them; their builds cap allocations through
/// ASAN_OPTIONS=max_allocation_size_mb instead.
#ifdef GEMS_TESTS_SANITIZED
inline constexpr bool kAddressSpaceCapUsable = false;
#else
inline constexpr bool kAddressSpaceCapUsable = true;
#endif

/// Caps this process's address space so that a runaway allocation fails
/// (std::bad_alloc) instead of exhausting the host. False if the cap
/// could not be set.
inline bool CapAddressSpace(uint64_t bytes) {
  const rlimit limit{bytes, bytes};
  return setrlimit(RLIMIT_AS, &limit) == 0;
}

struct HostileEnvelope {
  const char* family;
  std::vector<uint8_t> bytes;
};

inline std::vector<HostileEnvelope> HostileEnvelopes() {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  constexpr uint32_t kMax32 = std::numeric_limits<uint32_t>::max();
  constexpr uint64_t kSeed = 7;
  std::vector<HostileEnvelope> out;
  const auto add = [&out](const char* family, SketchTypeId type,
                          const std::function<void(ByteSink&)>& header) {
    ByteWriter w;
    EnvelopeBuilder env(w, type);
    header(w);
    env.Finish();
    out.push_back({family, std::move(w).TakeBytes()});
  };

  add("linear_counting", SketchTypeId::kLinearCounting, [](ByteSink& s) {
    s.PutU64(uint64_t{1} << 40);  // Bits: 128 GiB of words.
    s.PutU64(kSeed);
  });
  add("flajolet_martin", SketchTypeId::kFlajoletMartin, [](ByteSink& s) {
    s.PutU32(1u << 24);  // Bitmaps.
    s.PutU64(kSeed);
  });
  add("loglog", SketchTypeId::kLogLog, [](ByteSink& s) {
    s.PutU8(16);  // Precision.
    s.PutU64(kSeed);
  });
  add("hyperloglog", SketchTypeId::kHyperLogLog, [](ByteSink& s) {
    s.PutU8(18);
    s.PutU64(kSeed);
  });
  add("hllpp", SketchTypeId::kHllPlusPlus, [](ByteSink& s) {
    s.PutU8(18);
    s.PutU64(kSeed);
    s.PutU8(1);                  // Sparse.
    s.PutVarint(uint64_t{1} << 25);  // Sparse entries.
  });
  add("kmv", SketchTypeId::kKmv, [](ByteSink& s) {
    s.PutU32(kMax32);  // k.
    s.PutU64(kSeed);
    s.PutVarint(kMax32);  // Retained hashes.
  });
  add("bloom", SketchTypeId::kBloomFilter, [](ByteSink& s) {
    s.PutU64(uint64_t{1} << 40);  // Bits: 128 GiB of words.
    s.PutU8(64);                  // Hash functions.
    s.PutU64(kSeed);
  });
  add("counting_bloom", SketchTypeId::kCountingBloomFilter, [](ByteSink& s) {
    s.PutU64(uint64_t{1} << 36);  // Counters.
    s.PutU8(64);
    s.PutU64(kSeed);
  });
  add("blocked_bloom", SketchTypeId::kBlockedBloomFilter, [](ByteSink& s) {
    s.PutU64(uint64_t{1} << 32);  // Blocks: 256 GiB.
    s.PutU8(16);
    s.PutU64(kSeed);
  });
  add("count_min", SketchTypeId::kCountMin, [](ByteSink& s) {
    s.PutU32(1u << 16);  // Width x depth = 2^32 cells.
    s.PutU32(1u << 16);
    s.PutU64(kSeed);
    s.PutU8(0);   // Conservative update.
    s.PutI64(0);  // Total weight.
  });
  add("count_sketch", SketchTypeId::kCountSketch, [](ByteSink& s) {
    s.PutU32(1u << 16);
    s.PutU32(1u << 16);
    s.PutU64(kSeed);
  });
  add("misra_gries", SketchTypeId::kMisraGries, [](ByteSink& s) {
    s.PutVarint(kMax);  // Counters.
    s.PutI64(0);        // Total.
    s.PutI64(0);        // Decrements.
    s.PutVarint(kMax);  // Entries.
  });
  add("space_saving", SketchTypeId::kSpaceSaving, [](ByteSink& s) {
    s.PutVarint(kMax);  // Capacity.
    s.PutI64(0);
    s.PutVarint(kMax);  // Entries.
  });
  add("gk", SketchTypeId::kGreenwaldKhanna, [](ByteSink& s) {
    s.PutDouble(1e-300);  // Epsilon.
    s.PutU64(kMax);       // Count.
    s.PutVarint(kMax);    // Tuples.
  });
  add("kll", SketchTypeId::kKll, [](ByteSink& s) {
    s.PutU32(kMax32);     // k.
    s.PutU64(kMax - 1);   // Count.
    s.PutVarint(64);      // Levels.
    s.PutVarint(kMax);    // Level 0 size: count + 1.
  });
  add("qdigest", SketchTypeId::kQDigest, [](ByteSink& s) {
    s.PutU8(48);        // Universe bits.
    s.PutU64(kMax);     // Compression.
    s.PutU64(kMax);     // Count.
    s.PutVarint(kMax);  // Nodes.
  });
  add("tdigest", SketchTypeId::kTDigest, [](ByteSink& s) {
    s.PutDouble(1e300);  // Compression.
    s.PutDouble(0.0);    // Min.
    s.PutDouble(1.0);    // Max.
    s.PutU64(kMax);      // Total weight.
    s.PutVarint(kMax);   // Centroids.
  });
  add("reservoir", SketchTypeId::kReservoir, [](ByteSink& s) {
    s.PutVarint(kMax);  // k.
    s.PutU64(kMax);     // Seen.
    s.PutVarint(kMax);  // Sample size.
  });
  add("l0_sampler", SketchTypeId::kL0Sampler, [](ByteSink& s) {
    s.PutU64(kSeed);
    s.PutVarint(1u << 20);  // Sparsity.
    s.PutVarint(64);        // Levels.
    s.PutVarint(64);        // Rows.
  });
  add("ams", SketchTypeId::kAmsSketch, [](ByteSink& s) {
    s.PutU32(1u << 12);  // Estimators x groups = 2^24 counters.
    s.PutU32(1u << 12);
    s.PutU64(kSeed);
  });
  add("minhash", SketchTypeId::kMinHash, [](ByteSink& s) {
    s.PutU32(1u << 20);  // k.
    s.PutU64(kSeed);
  });
  add("agm", SketchTypeId::kAgmSketch, [](ByteSink& s) {
    s.PutU32(kMax32);  // Vertices.
    s.PutU64(kSeed);
    s.PutVarint(64);  // Copies.
    s.PutVarint(64);  // Sparsity.
    s.PutVarint(16);  // Rows.
  });
  add("sliding_hyperloglog", SketchTypeId::kSlidingHyperLogLog,
      [](ByteSink& s) {
        s.PutU8(18);
        s.PutU64(kSeed);
        s.PutU64(1);        // Pane width.
        s.PutU32(1u << 20);  // Panes.
        s.PutU8(1);         // Started.
        s.PutU64(0);        // Clock.
        s.PutU32(1u << 20);  // Live panes.
      });
  add("sliding_countmin", SketchTypeId::kSlidingCountMin, [](ByteSink& s) {
    s.PutU32(1u << 11);  // Width x depth = 2^22 cells.
    s.PutU32(1u << 11);
    s.PutU64(kSeed);
    s.PutU64(1);         // Pane width.
    s.PutU32(1u << 20);  // Panes.
    s.PutU8(1);          // Started.
    s.PutU64(0);         // Clock.
    s.PutU32(1u << 20);  // Live panes.
  });
  add("decayed_countmin", SketchTypeId::kDecayedCountMin, [](ByteSink& s) {
    s.PutU32(1u << 14);  // Width x depth = 2^28 cells.
    s.PutU32(1u << 14);
    s.PutU64(kSeed);
    s.PutDouble(1.0);  // Half-life.
    s.PutU8(0);        // Started.
    s.PutU64(0);       // Clock.
    s.PutDouble(0.0);  // Total.
  });
  add("exponential_histogram", SketchTypeId::kExponentialHistogram,
      [](ByteSink& s) {
        s.PutU64(kMax);      // Window.
        s.PutDouble(1.0);    // Epsilon.
        s.PutU64(0);         // Clock.
        s.PutU32(1u << 24);  // Buckets.
      });
  return out;
}

}  // namespace gems::testing

#endif  // GEMS_TESTS_HOSTILE_ENVELOPES_H_
