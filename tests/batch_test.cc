// Batch-equivalence suite for the hash-once ingest pipeline: every
// UpdateBatch / InsertBatch fast path must be observationally identical to
// per-item ingestion. "Identical" here is the strongest form the library
// can state — byte-identical Serialize() output — so any divergence in
// hashing, tie-breaking, compaction scheduling, or rng consumption shows
// up as a failure, not as a subtly different estimate.

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "core/registry.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"
#include "hash/polynomial.h"
#include "membership/blocked_bloom.h"
#include "membership/bloom.h"
#include "moments/ams.h"
#include "quantiles/kll.h"
#include "sampling/reservoir.h"
#include "similarity/minhash.h"
#include "simd/dispatch.h"
#include "workload/generators.h"

namespace gems {
namespace {

// A skewed stream: heavy duplication exercises SpaceSaving's run
// coalescing and KMV's dedup-with-eviction path, not just the hash loop.
std::vector<uint64_t> ZipfItems(size_t n, uint64_t seed) {
  ZipfGenerator gen(5000, 1.1, seed);
  std::vector<uint64_t> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) items.push_back(gen.Next());
  return items;
}

// Well-spread distinct-ish items (drive HLL++ across sparse -> dense).
std::vector<uint64_t> SpreadItems(size_t n) {
  std::vector<uint64_t> items;
  items.reserve(n);
  for (size_t i = 1; i <= n; ++i) items.push_back(i * 0x9E3779B97F4A7C15ull);
  return items;
}

// Feeds `items` through `fn` in ragged slices chosen to land below, at,
// and above the 256-item chunk the batch kernels use internally, so the
// chunk-boundary bookkeeping is exercised, not just one happy size.
template <typename T, typename Fn>
void FeedRagged(std::span<const T> items, Fn&& fn) {
  constexpr size_t kSlices[] = {1, 3, 255, 256, 257, 777};
  size_t round = 0;
  while (!items.empty()) {
    const size_t n = std::min(items.size(), kSlices[round++ % std::size(kSlices)]);
    fn(items.first(n));
    items = items.subspan(n);
  }
}

TEST(BatchEquivalence, HyperLogLog) {
  HyperLogLog batched(12, /*seed=*/7);
  HyperLogLog sequential(12, /*seed=*/7);
  const std::vector<uint64_t> items = ZipfItems(20000, 1);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, HllPlusPlusAcrossSparseToDense) {
  HllPlusPlus batched(14, /*seed=*/5);
  HllPlusPlus sequential(14, /*seed=*/5);
  // Enough distinct items that the sparse representation converts to dense
  // mid-batch; the batch path must hand off at exactly the same point.
  const std::vector<uint64_t> items = SpreadItems(60000);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, HllPlusPlusStaysSparse) {
  HllPlusPlus batched(14, /*seed=*/5);
  HllPlusPlus sequential(14, /*seed=*/5);
  const std::vector<uint64_t> items = ZipfItems(500, 2);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, Kmv) {
  KmvSketch batched(1024, /*seed=*/3);
  KmvSketch sequential(1024, /*seed=*/3);
  const std::vector<uint64_t> items = ZipfItems(30000, 4);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, CountMin) {
  CountMinSketch batched(2048, 4, /*seed=*/11);
  CountMinSketch sequential(2048, 4, /*seed=*/11);
  const std::vector<uint64_t> items = ZipfItems(20000, 6);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, CountMinWeighted) {
  CountMinSketch batched(2048, 4, /*seed=*/11);
  CountMinSketch sequential(2048, 4, /*seed=*/11);
  const std::vector<uint64_t> items = ZipfItems(5000, 7);
  std::vector<int64_t> weights;
  for (size_t i = 0; i < items.size(); ++i) {
    weights.push_back(static_cast<int64_t>(i % 17));
  }
  size_t offset = 0;
  FeedRagged<uint64_t>(items, [&](std::span<const uint64_t> s) {
    batched.UpdateBatch(s,
                        std::span<const int64_t>(weights).subspan(offset, s.size()));
    offset += s.size();
  });
  for (size_t i = 0; i < items.size(); ++i) {
    sequential.Update(items[i], weights[i]);
  }
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

// Conservative update is order-dependent, so UpdateBatch falls back to the
// per-item path — which must still be byte-identical by construction.
TEST(BatchEquivalence, CountMinConservativeFallback) {
  CountMinSketch batched(1024, 4, /*seed=*/13, /*conservative_update=*/true);
  CountMinSketch sequential(1024, 4, /*seed=*/13, /*conservative_update=*/true);
  const std::vector<uint64_t> items = ZipfItems(10000, 8);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, CountSketch) {
  CountSketch batched(2048, 5, /*seed=*/17);
  CountSketch sequential(2048, 5, /*seed=*/17);
  const std::vector<uint64_t> items = ZipfItems(20000, 9);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, CountSketchFlatUnderEachTable) {
  // The flat batch path runs every bucket and sign polynomial through the
  // mod61_poly_eval kernel. Under the active table and under the scalar
  // reference, in one process, unit and weighted ingest must both match
  // per-item Update byte for byte — including keys at and past the field's
  // prime and weights far from +/-1.
  std::vector<uint64_t> items = ZipfItems(6000, 31);
  constexpr uint64_t kP = KWiseHash::kPrime;
  for (uint64_t edge : {uint64_t{0}, uint64_t{1}, kP - 1, kP, kP + 1,
                        ~uint64_t{0}}) {
    items.push_back(edge);
  }
  std::vector<int64_t> weights;
  for (size_t i = 0; i < items.size(); ++i) {
    weights.push_back(i % 1000 == 0 ? (int64_t{1} << 40)
                                    : static_cast<int64_t>(i % 11) - 5);
  }
  CountSketch unit_ref(2048, 5, /*seed=*/29);
  CountSketch weighted_ref(2048, 5, /*seed=*/29);
  for (size_t i = 0; i < items.size(); ++i) {
    unit_ref.Update(items[i]);
    weighted_ref.Update(items[i], weights[i]);
  }
  for (bool force_scalar : {false, true}) {
    simd::ForceScalarForTesting(force_scalar);
    SCOPED_TRACE(simd::ActiveLevel());
    CountSketch unit(2048, 5, /*seed=*/29);
    CountSketch weighted(2048, 5, /*seed=*/29);
    size_t offset = 0;
    FeedRagged<uint64_t>(items, [&](std::span<const uint64_t> s) {
      unit.UpdateBatch(s);
      weighted.UpdateBatch(
          s, std::span<const int64_t>(weights).subspan(offset, s.size()));
      offset += s.size();
    });
    simd::ForceScalarForTesting(false);
    EXPECT_EQ(unit.Serialize(), unit_ref.Serialize());
    EXPECT_EQ(weighted.Serialize(), weighted_ref.Serialize());
  }
}

TEST(BatchEquivalence, PrefetchPathsUnderEachTable) {
  // Above their size thresholds (a 256 KiB counter row, 2^17 registers)
  // flat Count-Min, flat CountSketch and HyperLogLog switch to a two-phase
  // hash, prefetch, update loop. These shapes sit exactly at the
  // thresholds; under the active table and the scalar reference the batch
  // paths must match per-item Update byte for byte.
  std::vector<uint64_t> items = ZipfItems(20000, 41);
  const std::vector<uint64_t> spread = SpreadItems(20000);
  items.insert(items.end(), spread.begin(), spread.end());
  std::vector<int64_t> weights;
  for (size_t i = 0; i < items.size(); ++i) {
    weights.push_back(static_cast<int64_t>(i % 9) - 4);
  }
  constexpr uint32_t kWidth = 32768;
  CountMinSketch cm_ref(kWidth, 4, /*seed=*/5);
  CountSketch cs_ref(kWidth, 4, /*seed=*/5);
  CountSketch cs_weighted_ref(kWidth, 4, /*seed=*/5);
  HyperLogLog hll_ref(17, /*seed=*/5);
  for (size_t i = 0; i < items.size(); ++i) {
    cm_ref.Update(items[i]);
    cs_ref.Update(items[i]);
    cs_weighted_ref.Update(items[i], weights[i]);
    hll_ref.Update(items[i]);
  }
  for (bool force_scalar : {false, true}) {
    simd::ForceScalarForTesting(force_scalar);
    SCOPED_TRACE(simd::ActiveLevel());
    CountMinSketch cm(kWidth, 4, /*seed=*/5);
    CountSketch cs(kWidth, 4, /*seed=*/5);
    CountSketch cs_weighted(kWidth, 4, /*seed=*/5);
    HyperLogLog hll(17, /*seed=*/5);
    size_t offset = 0;
    FeedRagged<uint64_t>(items, [&](std::span<const uint64_t> s) {
      cm.UpdateBatch(s);
      cs.UpdateBatch(s);
      cs_weighted.UpdateBatch(
          s, std::span<const int64_t>(weights).subspan(offset, s.size()));
      hll.UpdateBatch(s);
      offset += s.size();
    });
    simd::ForceScalarForTesting(false);
    EXPECT_EQ(cm.Serialize(), cm_ref.Serialize());
    EXPECT_EQ(cs.Serialize(), cs_ref.Serialize());
    EXPECT_EQ(cs_weighted.Serialize(), cs_weighted_ref.Serialize());
    EXPECT_EQ(hll.Serialize(), hll_ref.Serialize());
  }
}

TEST(BatchEquivalence, CountSketchNegativeWeights) {
  CountSketch batched(2048, 5, /*seed=*/17);
  CountSketch sequential(2048, 5, /*seed=*/17);
  const std::vector<uint64_t> items = ZipfItems(5000, 10);
  std::vector<int64_t> weights;
  for (size_t i = 0; i < items.size(); ++i) {
    weights.push_back(static_cast<int64_t>(i % 7) - 3);  // Includes negatives.
  }
  size_t offset = 0;
  FeedRagged<uint64_t>(items, [&](std::span<const uint64_t> s) {
    batched.UpdateBatch(s,
                        std::span<const int64_t>(weights).subspan(offset, s.size()));
    offset += s.size();
  });
  for (size_t i = 0; i < items.size(); ++i) {
    sequential.Update(items[i], weights[i]);
  }
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

// Capacity far below the number of distinct items forces constant
// evictions; the run-coalescing fast path must still match per-item. 1,024
// slots run through the summary's slot index, 64 through its linear scan.
void ExpectSpaceSavingBatchMatches(size_t capacity) {
  SpaceSaving batched(capacity);
  SpaceSaving sequential(capacity);
  const std::vector<uint64_t> items = ZipfItems(30000, 11);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, SpaceSavingWithEvictions) {
  ExpectSpaceSavingBatchMatches(64);
}

TEST(BatchEquivalence, SpaceSaving1024WithEvictions) {
  ExpectSpaceSavingBatchMatches(1024);
}

void ExpectSpaceSavingWeightedBatchMatches(size_t capacity) {
  SpaceSaving batched(capacity);
  SpaceSaving sequential(capacity);
  const std::vector<uint64_t> items = ZipfItems(8000, 12);
  std::vector<int64_t> weights;
  for (size_t i = 0; i < items.size(); ++i) {
    weights.push_back(1 + static_cast<int64_t>(i % 5));
  }
  size_t offset = 0;
  FeedRagged<uint64_t>(items, [&](std::span<const uint64_t> s) {
    batched.UpdateBatch(s,
                        std::span<const int64_t>(weights).subspan(offset, s.size()));
    offset += s.size();
  });
  for (size_t i = 0; i < items.size(); ++i) {
    sequential.Update(items[i], weights[i]);
  }
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, SpaceSavingWeighted) {
  ExpectSpaceSavingWeightedBatchMatches(64);
}

TEST(BatchEquivalence, SpaceSaving1024Weighted) {
  ExpectSpaceSavingWeightedBatchMatches(1024);
}

TEST(BatchEquivalence, MinHash) {
  MinHashSketch batched(128, /*seed=*/37);
  MinHashSketch sequential(128, /*seed=*/37);
  const std::vector<uint64_t> items = ZipfItems(20000, 20);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

// Misra-Gries coalesces runs only when the update cannot reach the
// order-dependent decrement-all step; a capacity far below the number of
// distinct items keeps the table full so the fallback path runs constantly.
TEST(BatchEquivalence, MisraGriesWithDecrements) {
  MisraGries batched(32);
  MisraGries sequential(32);
  const std::vector<uint64_t> items = ZipfItems(30000, 21);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, MisraGriesNoEvictions) {
  // Capacity above the universe: every run takes the coalesced fast path.
  MisraGries batched(8192);
  MisraGries sequential(8192);
  const std::vector<uint64_t> items = ZipfItems(20000, 22);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, Ams) {
  AmsSketch batched(16, 5, /*seed=*/41);
  AmsSketch sequential(16, 5, /*seed=*/41);
  const std::vector<uint64_t> items = ZipfItems(10000, 23);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, AmsWeighted) {
  AmsSketch batched(16, 5, /*seed=*/41);
  AmsSketch sequential(16, 5, /*seed=*/41);
  const std::vector<uint64_t> items = ZipfItems(5000, 24);
  std::vector<int64_t> weights;
  for (size_t i = 0; i < items.size(); ++i) {
    weights.push_back(static_cast<int64_t>(i % 9) - 4);  // Includes negatives.
  }
  size_t offset = 0;
  FeedRagged<uint64_t>(items, [&](std::span<const uint64_t> s) {
    batched.UpdateBatch(s,
                        std::span<const int64_t>(weights).subspan(offset, s.size()));
    offset += s.size();
  });
  for (size_t i = 0; i < items.size(); ++i) {
    sequential.Update(items[i], weights[i]);
  }
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

// Batched queries must agree point-for-point with their scalar twins.
TEST(BatchEquivalence, CountMinEstimateBatch) {
  for (SketchLayout layout : {SketchLayout::kFlat, SketchLayout::kBlocked}) {
    SCOPED_TRACE(LayoutName(layout));
    CountMinSketch sketch(2048, 4, /*seed=*/43, false, layout);
    const std::vector<uint64_t> items = ZipfItems(20000, 25);
    sketch.UpdateBatch(items);
    const std::vector<uint64_t> queries = ZipfItems(3000, 26);
    std::vector<uint64_t> batched(queries.size());
    sketch.EstimateBatch(queries, batched.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batched[i], sketch.Estimate(queries[i])) << i;
    }
  }
}

TEST(BatchEquivalence, BloomMayContainBatch) {
  BloomFilter filter(1 << 16, 7, /*seed=*/47);
  const std::vector<uint64_t> items = ZipfItems(10000, 27);
  filter.InsertBatch(items);
  std::vector<uint64_t> queries = items;
  for (size_t i = 0; i < 5000; ++i) queries.push_back(i * 0xABCDEF12345ull);
  std::vector<uint8_t> batched(queries.size());
  filter.MayContainBatch(queries, batched.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i] != 0, filter.MayContain(queries[i])) << i;
  }
}

TEST(BatchEquivalence, BlockedBloomMayContainBatch) {
  BlockedBloomFilter filter(1 << 16, 8, /*seed=*/53);
  const std::vector<uint64_t> items = ZipfItems(10000, 28);
  filter.InsertBatch(items);
  std::vector<uint64_t> queries = items;
  for (size_t i = 0; i < 5000; ++i) queries.push_back(i * 0xFEDCBA9877ull);
  std::vector<uint8_t> batched(queries.size());
  filter.MayContainBatch(queries, batched.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i] != 0, filter.MayContain(queries[i])) << i;
  }
}

TEST(BatchEquivalence, BloomFilter) {
  BloomFilter batched(1 << 16, 7, /*seed=*/19);
  BloomFilter sequential(1 << 16, 7, /*seed=*/19);
  const std::vector<uint64_t> items = ZipfItems(20000, 13);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.InsertBatch(s); });
  for (uint64_t item : items) sequential.Insert(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

TEST(BatchEquivalence, BlockedBloomFilter) {
  BlockedBloomFilter batched(1 << 16, 8, /*seed=*/23);
  BlockedBloomFilter sequential(1 << 16, 8, /*seed=*/23);
  const std::vector<uint64_t> items = ZipfItems(20000, 14);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.InsertBatch(s); });
  for (uint64_t item : items) sequential.Insert(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

// KLL compaction draws coin flips from the sketch rng, so byte equality
// requires the batch path to trigger compactions at exactly the same
// points and consume exactly the same random words.
TEST(BatchEquivalence, KllConsumesIdenticalRandomness) {
  KllSketch batched(200, /*seed=*/29);
  KllSketch sequential(200, /*seed=*/29);
  std::vector<double> values;
  for (size_t i = 0; i < 50000; ++i) {
    values.push_back(static_cast<double>((i * 2654435761u) % 100000));
  }
  FeedRagged<double>(values, [&](auto s) { batched.UpdateBatch(s); });
  for (double v : values) sequential.Update(v);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

// Reservoir sampling is rng-driven after the fill phase; identical bytes
// prove the batch path draws the same bounded randoms in the same order.
TEST(BatchEquivalence, ReservoirConsumesIdenticalRandomness) {
  ReservoirSampler batched(100, /*seed=*/31);
  ReservoirSampler sequential(100, /*seed=*/31);
  const std::vector<uint64_t> items = ZipfItems(20000, 15);
  FeedRagged<uint64_t>(items, [&](auto s) { batched.UpdateBatch(s); });
  for (uint64_t item : items) sequential.Update(item);
  EXPECT_EQ(batched.Serialize(), sequential.Serialize());
}

// Type-erased dispatch: AnySketch::UpdateBatch must route to the concrete
// batch fast path (or the per-item fallback) and match per-item ingestion
// through the same handle, for every registered default-constructible type.
TEST(BatchEquivalence, AnySketchDispatchMatchesPerItem) {
  RegisterBuiltinSketches();
  const std::vector<uint64_t> items = ZipfItems(2000, 16);
  for (SketchTypeId id : SketchRegistry::Global().RegisteredTypes()) {
    const SketchRegistry::Entry* entry = SketchRegistry::Global().Find(id);
    if (entry == nullptr || !entry->make_default) continue;
    AnySketch batched = entry->make_default();
    AnySketch sequential = entry->make_default();
    // Keep items in-universe for every registered default (q-digest).
    std::vector<uint64_t> small;
    small.reserve(items.size());
    for (uint64_t item : items) small.push_back(item % (1u << 20));
    const Status bs = batched.UpdateBatch(small);
    bool updatable = true;
    for (uint64_t item : small) {
      const Status s = sequential.Update(item);
      if (!s.ok()) {
        updatable = false;
        break;
      }
    }
    if (!updatable) continue;  // Update-less types surface the same status.
    ASSERT_TRUE(bs.ok()) << entry->name << ": " << bs.ToString();
    EXPECT_EQ(batched.Serialize(), sequential.Serialize()) << entry->name;
  }
}

TEST(BatchEquivalence, AnySketchEmptyHandleFailsCleanly) {
  AnySketch empty;
  const uint64_t items[] = {1, 2, 3};
  const Status s = empty.UpdateBatch(items);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gems
