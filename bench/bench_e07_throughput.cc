// E7: update/query throughput of every sketch (google-benchmark), plus a
// batched-vs-per-item comparison of the hash-once ingest pipeline.
//
// Claim (paper section 2, "practical side" / DataSketches): production
// sketches sustain tens of millions of updates per second per core, which
// is what made them deployable inside stream engines and warehouses.
//
// Three modes:
//   bench_e07_throughput [gbench flags]      # the usual google-benchmark run
//   bench_e07_throughput --e07_json=out.json [--e07_items=N]
//     # deterministic batched-vs-per-item comparison; writes one JSON
//     # document with per-sketch ops/sec and speedup, prints it to stdout.
//   bench_e07_throughput --e07_scaling_json=out.json [--e07_scaling_items=N]
//     # thread-scaling harness: single-thread batched ingest vs the
//     # ShardedPipeline at 2/4/8 workers for HLL, Count-Min, Bloom, KLL;
//     # one JSON row per (sketch, worker count).
//   bench_e07_throughput --e07_simd_json=out.json [--e07_simd_items=N]
//     # scalar-vs-dispatched kernel comparison: the same batched ingest
//     # timed twice in one process, once with the dispatcher pinned to the
//     # scalar reference table and once with the startup selection. The
//     # ratio isolates the SIMD kernel layer's contribution (both sides
//     # use the identical batch path).
//   bench_e07_throughput --e07_layout_json=out.json [--e07_layout_items=N]
//     # flat-vs-blocked counter-layout comparison for Count-Min and
//     # CountSketch at LLC-busting widths: same zipf stream through both
//     # layouts' batched ingest, plus a serialize->restore round trip of
//     # the blocked sketch through the flat wire format (byte-identical
//     # re-serialize + equal estimates). CI gates the countmin speedup.
//   bench_e07_throughput --e07_concurrent_json=out.json
//                        [--e07_concurrent_items=N]
//     # concurrent-summary harness: (A) fixed-work writer ingest at
//     # 1/2/4/8 writers through the wait-free local-buffer ConcurrentSummary
//     # vs an embedded replica of the striped-lock design it replaced, and
//     # (B) reader query throughput on a dedicated thread while 0/1/2/4/8
//     # writers saturate ingest, with mean staleness sampled against an
//     # exact written-items counter. Reader throughput is reported in both
//     # wall time and thread CPU time; the CPU-time ratio is what CI gates,
//     # so an oversubscribed runner can't fake a reader stall.
//
// Every JSON document embeds a "dispatch" object (level, cpu_features,
// forced_scalar) and a "layout" object (prefetch enablement, hugepage
// grant counters) so artifacts are attributable to the hardware and
// memory-placement configuration they ran on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "common/hugepage.h"
#include "common/layout.h"
#include "cardinality/kmv.h"
#include "distributed/concurrent/concurrent_summary.h"
#include "distributed/sharded_pipeline.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"
#include "membership/blocked_bloom.h"
#include "membership/bloom.h"
#include "quantiles/kll.h"
#include "quantiles/mrl.h"
#include "quantiles/req.h"
#include "quantiles/tdigest.h"
#include "sampling/reservoir.h"
#include "similarity/minhash.h"
#include "simd/dispatch.h"
#include "workload/generators.h"

namespace {

std::vector<uint64_t> TestItems() {
  static const std::vector<uint64_t> items =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(1 << 16);
  return items;
}

void BM_HyperLogLogUpdate(benchmark::State& state) {
  gems::HyperLogLog sketch(static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLogLogUpdate)->Arg(10)->Arg(14);

void BM_HllPlusPlusUpdate(benchmark::State& state) {
  gems::HllPlusPlus sketch(12, 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllPlusPlusUpdate);

void BM_KmvUpdate(benchmark::State& state) {
  gems::KmvSketch sketch(1024, 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KmvUpdate);

void BM_BloomInsert(benchmark::State& state) {
  gems::BloomFilter filter(1 << 23, static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    filter.Insert(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert)->Arg(4)->Arg(8);

void BM_BloomQuery(benchmark::State& state) {
  gems::BloomFilter filter(1 << 23, 7, 1);
  const auto items = TestItems();
  for (size_t i = 0; i < items.size() / 2; ++i) filter.Insert(items[i]);
  size_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= filter.MayContain(items[i++ & 0xFFFF]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

void BM_BlockedBloomQuery(benchmark::State& state) {
  gems::BlockedBloomFilter filter(1 << 23, 8, 1);
  const auto items = TestItems();
  for (size_t i = 0; i < items.size() / 2; ++i) filter.Insert(items[i]);
  size_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= filter.MayContain(items[i++ & 0xFFFF]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockedBloomQuery);

void BM_CountMinUpdate(benchmark::State& state) {
  gems::CountMinSketch sketch(4096, static_cast<uint32_t>(state.range(0)),
                              1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinUpdate)->Arg(4)->Arg(8);

void BM_CountSketchUpdate(benchmark::State& state) {
  gems::CountSketch sketch(4096, 5, 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchUpdate);

void BM_SpaceSavingUpdate(benchmark::State& state) {
  gems::SpaceSaving sketch(static_cast<size_t>(state.range(0)));
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingUpdate)->Arg(256)->Arg(4096);

void BM_MisraGriesUpdate(benchmark::State& state) {
  gems::MisraGries sketch(1024);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MisraGriesUpdate);

void BM_KllUpdate(benchmark::State& state) {
  gems::KllSketch sketch(200, 1);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KllUpdate);

void BM_MrlUpdate(benchmark::State& state) {
  gems::MrlSketch sketch(10, 500);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MrlUpdate);

void BM_ReqUpdate(benchmark::State& state) {
  gems::ReqSketch sketch(32, 1);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReqUpdate);

void BM_MinHashUpdate(benchmark::State& state) {
  gems::MinHashSketch sketch(static_cast<uint32_t>(state.range(0)), 1);
  const auto items = TestItems();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinHashUpdate)->Arg(64)->Arg(256);

void BM_TDigestUpdate(benchmark::State& state) {
  gems::TDigest sketch(100);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(values[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TDigestUpdate);

// ---- batched ingest variants: whole-vector UpdateBatch per iteration ----

void BM_HyperLogLogUpdateBatch(benchmark::State& state) {
  gems::HyperLogLog sketch(static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_HyperLogLogUpdateBatch)->Arg(10)->Arg(14);

void BM_HllPlusPlusUpdateBatch(benchmark::State& state) {
  gems::HllPlusPlus sketch(12, 1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_HllPlusPlusUpdateBatch);

void BM_KmvUpdateBatch(benchmark::State& state) {
  gems::KmvSketch sketch(1024, 1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_KmvUpdateBatch);

void BM_BloomInsertBatch(benchmark::State& state) {
  gems::BloomFilter filter(1 << 23, static_cast<int>(state.range(0)), 1);
  const auto items = TestItems();
  for (auto _ : state) {
    filter.InsertBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_BloomInsertBatch)->Arg(4)->Arg(8);

void BM_CountMinUpdateBatch(benchmark::State& state) {
  gems::CountMinSketch sketch(4096, static_cast<uint32_t>(state.range(0)),
                              1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_CountMinUpdateBatch)->Arg(4)->Arg(8);

void BM_CountSketchUpdateBatch(benchmark::State& state) {
  gems::CountSketch sketch(4096, 5, 1);
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_CountSketchUpdateBatch);

void BM_SpaceSavingUpdateBatch(benchmark::State& state) {
  gems::SpaceSaving sketch(static_cast<size_t>(state.range(0)));
  const auto items = TestItems();
  for (auto _ : state) {
    sketch.UpdateBatch(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
}
BENCHMARK(BM_SpaceSavingUpdateBatch)->Arg(256)->Arg(4096);

void BM_KllUpdateBatch(benchmark::State& state) {
  gems::KllSketch sketch(200, 1);
  const auto values =
      gems::GenerateValues(gems::ValueDistribution::kGaussian, 1 << 16, 2);
  for (auto _ : state) {
    sketch.UpdateBatch(values);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_KllUpdateBatch);

void BM_HyperLogLogMerge(benchmark::State& state) {
  gems::HyperLogLog a(12, 1), b(12, 1);
  for (uint64_t item : gems::DistinctItems(100000, 3)) b.Update(item);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Merge(b));
  }
}
BENCHMARK(BM_HyperLogLogMerge);

void BM_HyperLogLogSerialize(benchmark::State& state) {
  gems::HyperLogLog sketch(12, 1);
  for (uint64_t item : gems::DistinctItems(100000, 3)) sketch.Update(item);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Serialize());
  }
}
BENCHMARK(BM_HyperLogLogSerialize);

// ------------------- batched vs per-item JSON comparison -------------------
//
// A deterministic chrono harness (no google-benchmark adaptivity) so CI can
// assert on the output: for each hot sketch, ingest the same stream once
// per item and once through the batch fast path, best of `kReps` runs.

constexpr int kReps = 3;
constexpr size_t kChunk = 4096;

template <typename Fn>
double BestSeconds(Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Comparison {
  const char* sketch;
  double per_item_mops;
  double batched_mops;
  double speedup;
};

// Times `make()` sketches fed the whole stream per-item vs in kChunk-item
// batches; a fresh sketch per repetition so both sides see identical state.
template <typename Make, typename PerItem, typename Batch>
Comparison Compare(const char* name, const std::vector<uint64_t>& items,
                   Make make, PerItem per_item, Batch batch) {
  const double seq = BestSeconds([&] {
    auto sketch = make();
    for (uint64_t item : items) per_item(sketch, item);
    benchmark::DoNotOptimize(sketch);
  });
  const double bat = BestSeconds([&] {
    auto sketch = make();
    std::span<const uint64_t> span(items);
    for (size_t off = 0; off < span.size(); off += kChunk) {
      batch(sketch, span.subspan(off, std::min(kChunk, span.size() - off)));
    }
    benchmark::DoNotOptimize(sketch);
  });
  const double n = static_cast<double>(items.size());
  return Comparison{name, n / seq / 1e6, n / bat / 1e6, seq / bat};
}

int RunBatchedComparison(const std::string& json_path, size_t num_items) {
  // Per-family representative workloads: cardinality/membership sketches
  // see the distinct-heavy keys of a bulk load (their hard case), while
  // frequency sketches see the skewed stream they exist to summarize.
  const std::vector<uint64_t> items = gems::DistinctItems(num_items, 42);
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);
  std::vector<Comparison> results;

  results.push_back(Compare(
      "hyperloglog", items, [] { return gems::HyperLogLog(12, 1); },
      [](gems::HyperLogLog& s, uint64_t x) { s.Update(x); },
      [](gems::HyperLogLog& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  results.push_back(Compare(
      "hllpp", items, [] { return gems::HllPlusPlus(12, 1); },
      [](gems::HllPlusPlus& s, uint64_t x) { s.Update(x); },
      [](gems::HllPlusPlus& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  results.push_back(Compare(
      "kmv", items, [] { return gems::KmvSketch(1024, 1); },
      [](gems::KmvSketch& s, uint64_t x) { s.Update(x); },
      [](gems::KmvSketch& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  results.push_back(Compare(
      "countmin", zipf, [] { return gems::CountMinSketch(4096, 4, 1); },
      [](gems::CountMinSketch& s, uint64_t x) { s.Update(x); },
      [](gems::CountMinSketch& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  results.push_back(Compare(
      "countsketch", zipf, [] { return gems::CountSketch(4096, 5, 1); },
      [](gems::CountSketch& s, uint64_t x) { s.Update(x); },
      [](gems::CountSketch& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  results.push_back(Compare(
      "spacesaving", zipf, [] { return gems::SpaceSaving(4096); },
      [](gems::SpaceSaving& s, uint64_t x) { s.Update(x); },
      [](gems::SpaceSaving& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  results.push_back(Compare(
      "bloom", items, [] { return gems::BloomFilter(1 << 23, 7, 1); },
      [](gems::BloomFilter& s, uint64_t x) { s.Insert(x); },
      [](gems::BloomFilter& s, std::span<const uint64_t> b) {
        s.InsertBatch(b);
      }));
  results.push_back(Compare(
      "blocked_bloom", items,
      [] { return gems::BlockedBloomFilter(1 << 23, 8, 1); },
      [](gems::BlockedBloomFilter& s, uint64_t x) { s.Insert(x); },
      [](gems::BlockedBloomFilter& s, std::span<const uint64_t> b) {
        s.InsertBatch(b);
      }));
  results.push_back(Compare(
      "reservoir", items, [] { return gems::ReservoirSampler(1024, 1); },
      [](gems::ReservoirSampler& s, uint64_t x) { s.Update(x); },
      [](gems::ReservoirSampler& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  // KLL ingests doubles; reuse the item stream as values.
  {
    std::vector<double> values;
    values.reserve(items.size());
    for (uint64_t item : items) {
      values.push_back(static_cast<double>(item % 1000000));
    }
    const double seq = BestSeconds([&] {
      gems::KllSketch sketch(200, 1);
      for (double v : values) sketch.Update(v);
      benchmark::DoNotOptimize(sketch);
    });
    const double bat = BestSeconds([&] {
      gems::KllSketch sketch(200, 1);
      std::span<const double> span(values);
      for (size_t off = 0; off < span.size(); off += kChunk) {
        sketch.UpdateBatch(
            span.subspan(off, std::min(kChunk, span.size() - off)));
      }
      benchmark::DoNotOptimize(sketch);
    });
    const double n = static_cast<double>(values.size());
    results.push_back(Comparison{"kll", n / seq / 1e6, n / bat / 1e6,
                                 seq / bat});
  }

  std::string json = "{\n  \"bench\": \"e07_batched_vs_per_item\",\n";
  json += "  \"items\": " + std::to_string(num_items) + ",\n";
  json += "  \"chunk\": " + std::to_string(kChunk) + ",\n";
  json += "  \"dispatch\": " + gems::simd::DispatchJson() + ",\n";
  json += "  \"layout\": " + gems::LayoutJson() + ",\n";
  json += "  \"results\": [\n";
  char line[256];
  for (size_t i = 0; i < results.size(); ++i) {
    const Comparison& c = results[i];
    std::snprintf(line, sizeof(line),
                  "    {\"sketch\": \"%s\", \"per_item_mops\": %.2f, "
                  "\"batched_mops\": %.2f, \"speedup\": %.2f}%s\n",
                  c.sketch, c.per_item_mops, c.batched_mops, c.speedup,
                  i + 1 < results.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  std::FILE* f = std::fopen(json_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

// ----------------- scalar-vs-dispatched kernel comparison -----------------
//
// Three configurations per sketch, which separate the two claims bundled
// into "batched ingest is faster": (1) per_item — the scalar Update() loop
// a caller without batching writes; (2) batched_scalar — UpdateBatch with
// the kernel table pinned to the scalar reference (the batching win alone:
// hash hoisting, modulo strength reduction, loop structure); (3)
// batched_simd — UpdateBatch under the startup dispatch choice.
// `simd_speedup` is (3)/(2), the vector kernels' own contribution;
// `batched_ingest_speedup` is (3)/(1), the end-to-end win over scalar
// per-item ingest — the quantity the CI bench-smoke job gates at 1.5x for
// hyperloglog and countmin. All three configs run identical sketch code
// outside the kernel table, and bit identity means they produce the same
// sketch, so a speedup can never come from a wrong answer.

struct SimdRow {
  const char* sketch;
  double per_item_mops;
  double batched_scalar_mops;
  double batched_simd_mops;
  double simd_speedup;            // batched_simd / batched_scalar
  double batched_ingest_speedup;  // batched_simd / per_item
};

template <typename T, typename Make, typename PerItem, typename Batch>
SimdRow CompareSimd(const char* name, const std::vector<T>& items, Make make,
                    PerItem per_item, Batch batch) {
  const auto run_batched = [&] {
    auto sketch = make();
    std::span<const T> span(items);
    for (size_t off = 0; off < span.size(); off += kChunk) {
      batch(sketch, span.subspan(off, std::min(kChunk, span.size() - off)));
    }
    benchmark::DoNotOptimize(sketch);
  };
  gems::simd::ForceScalarForTesting(true);
  const double seq = BestSeconds([&] {
    auto sketch = make();
    for (T item : items) per_item(sketch, item);
    benchmark::DoNotOptimize(sketch);
  });
  const double scalar = BestSeconds(run_batched);
  gems::simd::ForceScalarForTesting(false);
  const double dispatched = BestSeconds(run_batched);
  const double n = static_cast<double>(items.size());
  return SimdRow{name,
                 n / seq / 1e6,
                 n / scalar / 1e6,
                 n / dispatched / 1e6,
                 scalar / dispatched,
                 seq / dispatched};
}

int RunSimdComparison(const std::string& json_path, size_t num_items) {
  const std::vector<uint64_t> items = gems::DistinctItems(num_items, 42);
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);
  std::vector<SimdRow> rows;

  rows.push_back(CompareSimd(
      "hyperloglog", items, [] { return gems::HyperLogLog(12, 1); },
      [](gems::HyperLogLog& s, uint64_t x) { s.Update(x); },
      [](gems::HyperLogLog& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  rows.push_back(CompareSimd(
      "countmin", zipf, [] { return gems::CountMinSketch(4096, 4, 1); },
      [](gems::CountMinSketch& s, uint64_t x) { s.Update(x); },
      [](gems::CountMinSketch& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  rows.push_back(CompareSimd(
      "countsketch", zipf, [] { return gems::CountSketch(4096, 5, 1); },
      [](gems::CountSketch& s, uint64_t x) { s.Update(x); },
      [](gems::CountSketch& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  rows.push_back(CompareSimd(
      "bloom", items, [] { return gems::BloomFilter(1 << 23, 7, 1); },
      [](gems::BloomFilter& s, uint64_t x) { s.Insert(x); },
      [](gems::BloomFilter& s, std::span<const uint64_t> b) {
        s.InsertBatch(b);
      }));
  rows.push_back(CompareSimd(
      "blocked_bloom", items,
      [] { return gems::BlockedBloomFilter(1 << 23, 8, 1); },
      [](gems::BlockedBloomFilter& s, uint64_t x) { s.Insert(x); },
      [](gems::BlockedBloomFilter& s, std::span<const uint64_t> b) {
        s.InsertBatch(b);
      }));
  rows.push_back(CompareSimd(
      "minhash", items, [] { return gems::MinHashSketch(64, 1); },
      [](gems::MinHashSketch& s, uint64_t x) { s.Update(x); },
      [](gems::MinHashSketch& s, std::span<const uint64_t> b) {
        s.UpdateBatch(b);
      }));
  // KLL's batch path calls no kernel-table entry, so its row is the ~1.0x
  // simd_speedup control: it shows what the harness reports when dispatch
  // does not matter.
  std::vector<double> values;
  values.reserve(zipf.size());
  for (uint64_t item : zipf) values.push_back(static_cast<double>(item));
  rows.push_back(CompareSimd(
      "kll", values, [] { return gems::KllSketch(200, 1); },
      [](gems::KllSketch& s, double v) { s.Update(v); },
      [](gems::KllSketch& s, std::span<const double> b) {
        s.UpdateBatch(b);
      }));

  std::string json = "{\n  \"bench\": \"e07_simd_vs_scalar\",\n";
  json += "  \"items\": " + std::to_string(num_items) + ",\n";
  json += "  \"chunk\": " + std::to_string(kChunk) + ",\n";
  json += "  \"dispatch\": " + gems::simd::DispatchJson() + ",\n";
  json += "  \"layout\": " + gems::LayoutJson() + ",\n";
  json += "  \"results\": [\n";
  char line[320];
  for (size_t i = 0; i < rows.size(); ++i) {
    const SimdRow& row = rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"sketch\": \"%s\", \"per_item_mops\": %.2f, "
                  "\"batched_scalar_mops\": %.2f, "
                  "\"batched_simd_mops\": %.2f, \"simd_speedup\": %.2f, "
                  "\"batched_ingest_speedup\": %.2f}%s\n",
                  row.sketch, row.per_item_mops, row.batched_scalar_mops,
                  row.batched_simd_mops, row.simd_speedup,
                  row.batched_ingest_speedup, i + 1 < rows.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  std::FILE* f = std::fopen(json_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

// ----------------- flat vs blocked counter-layout harness -----------------
//
// The memory-layout claim in isolation: the same zipf stream through the
// same sketch at an LLC-busting width, once in the classic flat row-major
// layout (depth cache lines touched per item) and once in the blocked
// layout (all depth counters in one 64-byte block — one line per item).
// Both sides run the identical UpdateBatch entry point; only the layout
// tag passed to the constructor differs. The round-trip leg then pushes
// the blocked sketch through the flat wire format (serialize -> restore)
// and checks byte-identical re-serialization plus equal estimates over a
// probe sample, so the layout can never buy speed by changing answers.

struct LayoutRow {
  const char* sketch;
  double flat_mops;
  double blocked_mops;
  double speedup;  // flat_seconds / blocked_seconds.
  bool round_trip_ok;
};

template <typename Make, typename Est>
auto CompareLayout(const char* name, Make make,
                   const std::vector<uint64_t>& items, Est est) -> LayoutRow {
  using S = decltype(make(gems::SketchLayout::kFlat));
  const auto ingest = [&](S& sketch) {
    std::span<const uint64_t> span(items);
    for (size_t off = 0; off < span.size(); off += kChunk) {
      sketch.UpdateBatch(
          span.subspan(off, std::min(kChunk, span.size() - off)));
    }
    benchmark::DoNotOptimize(sketch);
  };
  const double flat = BestSeconds([&] {
    S sketch = make(gems::SketchLayout::kFlat);
    ingest(sketch);
  });
  const double blocked = BestSeconds([&] {
    S sketch = make(gems::SketchLayout::kBlocked);
    ingest(sketch);
  });

  S sketch = make(gems::SketchLayout::kBlocked);
  ingest(sketch);
  const std::vector<uint8_t> bytes = sketch.Serialize();
  bool round_trip_ok = false;
  if (auto restored = S::Deserialize(bytes); restored.ok()) {
    round_trip_ok = restored.value().layout() == gems::SketchLayout::kBlocked &&
                    restored.value().Serialize() == bytes;
    for (size_t i = 0; round_trip_ok && i < 256; ++i) {
      const uint64_t probe = items[(i * 8191) % items.size()];
      round_trip_ok = est(restored.value(), probe) == est(sketch, probe);
    }
  }
  const double n = static_cast<double>(items.size());
  return LayoutRow{name, n / flat / 1e6, n / blocked / 1e6, flat / blocked,
                   round_trip_ok};
}

int RunLayoutComparison(const std::string& json_path, size_t num_items) {
  // Width 2^20 x depth 4 = 32 MiB of counters — far past the LLC, so the
  // flat layout pays ~depth cache misses per item and blocked pays ~one.
  // Depth 4 also fills the block exactly (2 columns x 4 rows x 8 bytes).
  constexpr uint32_t kWidth = 1 << 20;
  constexpr uint32_t kDepth = 4;
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);

  std::vector<LayoutRow> rows;
  rows.push_back(CompareLayout(
      "countmin",
      [&](gems::SketchLayout layout) {
        return gems::CountMinSketch(kWidth, kDepth, /*seed=*/1,
                                    /*conservative_update=*/false, layout);
      },
      zipf,
      [](const gems::CountMinSketch& s, uint64_t item) {
        return s.Estimate(item);
      }));
  rows.push_back(CompareLayout(
      "countsketch",
      [&](gems::SketchLayout layout) {
        return gems::CountSketch(kWidth, kDepth, /*seed=*/1, layout);
      },
      zipf,
      [](const gems::CountSketch& s, uint64_t item) {
        return s.Estimate(item);
      }));

  std::string json = "{\n  \"bench\": \"e07_layout\",\n";
  json += "  \"items\": " + std::to_string(num_items) + ",\n";
  json += "  \"chunk\": " + std::to_string(kChunk) + ",\n";
  json += "  \"width\": " + std::to_string(kWidth) + ",\n";
  json += "  \"depth\": " + std::to_string(kDepth) + ",\n";
  json += "  \"dispatch\": " + gems::simd::DispatchJson() + ",\n";
  json += "  \"layout\": " + gems::LayoutJson() + ",\n";
  json += "  \"results\": [\n";
  char line[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const LayoutRow& row = rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"sketch\": \"%s\", \"flat_mops\": %.2f, "
                  "\"blocked_mops\": %.2f, \"speedup\": %.2f, "
                  "\"round_trip_ok\": %s}%s\n",
                  row.sketch, row.flat_mops, row.blocked_mops, row.speedup,
                  row.round_trip_ok ? "true" : "false",
                  i + 1 < rows.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  std::FILE* f = std::fopen(json_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

// ------------------------- thread-scaling harness -------------------------
//
// Single-thread batched ingest (the PR 2 fast path) vs the ShardedPipeline
// at power-of-two worker counts up to the hardware concurrency, for the
// four hot families. Workers are pinned (first-touch shard placement +
// affinity) and the achieved pin count is part of each row's provenance.

struct ScalingRow {
  const char* sketch;
  size_t workers;
  size_t pinned;  // workers the OS actually let us pin (0 for the baseline).
  double mops;
  double speedup;  // vs this sketch's 1-worker batched baseline.
};

// Power-of-two worker counts up to the hardware concurrency, always
// including the hardware concurrency itself (so a 12-core box reports
// 2/4/8/12 and CI's 2-core runner still reports 2).
std::vector<size_t> ScalingWorkerCounts() {
  const size_t hw =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  std::vector<size_t> counts;
  for (size_t w = 2; w < hw; w *= 2) counts.push_back(w);
  counts.push_back(hw);
  return counts;
}

template <typename S>
void FeedChunk(S& sketch,
               std::span<const typename gems::ShardedPipeline<S>::Item> b) {
  if constexpr (gems::BatchItemSummary<S>) {
    sketch.UpdateBatch(b);
  } else if constexpr (gems::BatchInsertableSummary<S>) {
    sketch.InsertBatch(b);
  } else {
    sketch.UpdateBatch(b);
  }
}

template <typename S>
void ScaleSketch(
    const char* name, const S& prototype,
    const std::vector<typename gems::ShardedPipeline<S>::Item>& stream,
    std::vector<ScalingRow>* rows) {
  using Item = typename gems::ShardedPipeline<S>::Item;
  const std::span<const Item> span(stream);
  const double n = static_cast<double>(stream.size());

  const double base = BestSeconds([&] {
    S sketch = prototype;
    for (size_t off = 0; off < span.size(); off += kChunk) {
      FeedChunk(sketch,
                span.subspan(off, std::min(kChunk, span.size() - off)));
    }
    benchmark::DoNotOptimize(sketch);
  });
  rows->push_back({name, 1, 0, n / base / 1e6, 1.0});

  for (const size_t workers : ScalingWorkerCounts()) {
    double best = 1e100;
    size_t pinned = 0;
    for (int r = 0; r < kReps; ++r) {
      // The pool spins up (and the shards get their first-touch + pinned
      // placement) outside the timed region; Push + Finish is the
      // steady-state cost a stream engine would pay.
      gems::ShardedPipeline<S> pipeline(prototype,
                                        {.num_workers = workers,
                                         .chunk_items = kChunk,
                                         .pin_workers = true});
      pinned = pipeline.pinned_workers();
      const auto t0 = std::chrono::steady_clock::now();
      pipeline.Push(span);
      auto root = pipeline.Finish();
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(root);
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    rows->push_back({name, workers, pinned, n / best / 1e6, base / best});
  }
}

int RunThreadScaling(const std::string& json_path, size_t num_items) {
  const std::vector<uint64_t> items = gems::DistinctItems(num_items, 42);
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);
  std::vector<double> values;
  values.reserve(items.size());
  for (uint64_t item : items) {
    values.push_back(static_cast<double>(item % 1000000));
  }

  std::vector<ScalingRow> rows;
  ScaleSketch("hyperloglog", gems::HyperLogLog(12, 1), items, &rows);
  ScaleSketch("countmin", gems::CountMinSketch(4096, 4, 1), zipf, &rows);
  ScaleSketch("bloom", gems::BloomFilter(1 << 23, 7, 1), items, &rows);
  ScaleSketch("kll", gems::KllSketch(200, 1), values, &rows);

  std::string json = "{\n  \"bench\": \"e07_thread_scaling\",\n";
  json += "  \"items\": " + std::to_string(num_items) + ",\n";
  json += "  \"chunk\": " + std::to_string(kChunk) + ",\n";
  json += "  \"hw_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"pin_workers\": true,\n";
  json += "  \"dispatch\": " + gems::simd::DispatchJson() + ",\n";
  json += "  \"layout\": " + gems::LayoutJson() + ",\n";
  json += "  \"results\": [\n";
  char line[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& row = rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"sketch\": \"%s\", \"workers\": %zu, "
                  "\"pinned_workers\": %zu, \"mops\": %.2f, "
                  "\"speedup\": %.2f}%s\n",
                  row.sketch, row.workers, row.pinned, row.mops,
                  row.speedup, i + 1 < rows.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  std::FILE* f = std::fopen(json_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

// ----------------- concurrent wait-free summary harness -----------------
//
// Two phases, both answering questions the unit tests can't:
//
//   Phase A (writer ingest): the same fixed item stream split evenly
//   across 1/2/4/8 writer threads, pushed per-item through (a) the
//   wait-free local-buffer ConcurrentSummary and (b) StripedLockSummary,
//   an embedded replica of the lock-per-update striped design this PR
//   replaced. The striped replica even gets its best case — one stripe
//   per writer, so its locks are uncontended — and the buffered design
//   must still win on the strength of batch-drained local sketches alone.
//
//   Phase B (reader under load): a dedicated reader thread runs a fixed
//   number of wait-free queries while 0 (idle) / 1 / 2 / 4 / 8 writers
//   saturate ingest with distinct items. Writers maintain an exact
//   written-items counter so the reader can sample staleness: the
//   fraction of written items not yet visible in Estimate(). Reader
//   throughput is recorded against wall time and CLOCK_THREAD_CPUTIME_ID;
//   the CPU-time ratio is the CI gate because on a small shared runner 9
//   runnable threads oversubscribe the cores, and wall time then measures
//   the scheduler, not the read path.

// Replica of the striped-lock ConcurrentSummary that
// src/distributed/concurrent/ replaced, kept verbatim-in-spirit as the
// bench baseline: per-thread stripe selected by a first-touch round-robin
// token, one mutex acquisition per update, merge-on-read snapshot.
template <typename S>
class StripedLockSummary {
 public:
  StripedLockSummary(const S& prototype, size_t num_stripes)
      : stripes_(RoundUpPow2(num_stripes)) {
    for (Stripe& stripe : stripes_) stripe.summary.emplace(prototype);
  }

  void Update(uint64_t item) {
    Stripe& stripe = stripes_[StripeIndex()];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.summary->Update(item);
  }

  S Snapshot() const {
    S merged = [&] {
      std::lock_guard<std::mutex> lock(stripes_[0].mutex);
      return *stripes_[0].summary;
    }();
    for (size_t i = 1; i < stripes_.size(); ++i) {
      std::lock_guard<std::mutex> lock(stripes_[i].mutex);
      (void)merged.Merge(*stripes_[i].summary);
    }
    return merged;
  }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::optional<S> summary;
  };

  static size_t RoundUpPow2(size_t n) {
    size_t rounded = 1;
    while (rounded < n) rounded <<= 1;
    return rounded;
  }

  size_t StripeIndex() const {
    static std::atomic<size_t> next_token{0};
    thread_local const size_t token =
        next_token.fetch_add(1, std::memory_order_relaxed);
    return token & (stripes_.size() - 1);
  }

  std::vector<Stripe> stripes_;
};

struct ConcurrentWriterRow {
  const char* sketch;
  size_t writers;
  double concurrent_writer_mops;
  double striped_writer_mops;
  double writer_speedup;  // concurrent / striped.
};

// Fixed total work: `items` split evenly across the writers, per-item
// Update() on both designs (the contended path the rewrite targets; both
// keep batch entry points, which phase B's writers exercise via the drain).
// Each timed run ends with a Snapshot() so the concurrent side pays for
// its exit-hook folds and final publish inside the measurement.
template <typename S>
void ConcurrentWriterScale(const char* name, const S& prototype,
                           const std::vector<uint64_t>& items,
                           std::vector<ConcurrentWriterRow>* rows) {
  const double n = static_cast<double>(items.size());
  for (const size_t writers :
       {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const size_t per = items.size() / writers;
    const auto run_writers = [&](auto& live) {
      std::vector<std::thread> threads;
      threads.reserve(writers);
      for (size_t w = 0; w < writers; ++w) {
        threads.emplace_back([&live, &items, per, writers, w] {
          const size_t begin = w * per;
          const size_t end =
              w + 1 == writers ? items.size() : begin + per;
          for (size_t i = begin; i < end; ++i) live.Update(items[i]);
        });
      }
      for (std::thread& t : threads) t.join();
    };
    const double concurrent = BestSeconds([&] {
      gems::ConcurrentSummary<S> live(prototype);
      run_writers(live);
      auto snapshot = live.Snapshot();
      benchmark::DoNotOptimize(snapshot);
    });
    const double striped = BestSeconds([&] {
      StripedLockSummary<S> live(prototype, writers);
      run_writers(live);
      S snapshot = live.Snapshot();
      benchmark::DoNotOptimize(snapshot);
    });
    rows->push_back({name, writers, n / concurrent / 1e6,
                     n / striped / 1e6, striped / concurrent});
  }
}

struct ConcurrentReaderRow {
  const char* sketch;
  size_t writers;
  double reader_mops;           // wall-clock queries/sec.
  double reader_cpu_mops;       // thread-CPU-time queries/sec.
  double reader_vs_idle;        // wall, vs this sketch's writers:0 row.
  double reader_vs_idle_cpu;    // CPU time, vs writers:0 — the CI gate.
  double staleness_frac_mean;   // mean (written - visible)/written, >= 0.
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One sketch's reader-under-load sweep. `read(live)` is the wait-free
// query under test and must return a double so the sum can't be
// dead-code-eliminated. Writers push globally distinct items (per-writer
// high bits, sequential low bits) so for HLL the exact written counter is
// also the true cardinality and staleness is directly observable; the
// counter only includes full 1024-item blocks, so it never runs ahead of
// what the writer actually called Update() with.
template <typename S, typename ReadFn>
void ConcurrentReaderUnderLoad(const char* name, const S& prototype,
                               ReadFn read, bool track_staleness,
                               size_t reader_iters,
                               std::vector<ConcurrentReaderRow>* rows) {
  double idle_wall_mops = 0.0;
  double idle_cpu_mops = 0.0;
  for (const size_t writers :
       {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    gems::ConcurrentSummary<S> live(prototype);
    // Idle rows still read a populated sketch, not a freshly-zeroed one.
    for (uint64_t i = 0; i < 4096; ++i) live.Update(~uint64_t{0} - i);
    live.FlushLocal();

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> written{0};
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&live, &stop, &written, w] {
        const uint64_t base = (w + 1) << 40;
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int k = 0; k < 1024; ++k) live.Update(base + i++);
          written.fetch_add(1024, std::memory_order_relaxed);
        }
      });
    }
    if (writers > 0) {
      // Let the first propagation land so staleness samples measure the
      // steady state, not startup.
      const uint64_t start_epoch = live.epoch();
      while (live.epoch() == start_epoch) std::this_thread::yield();
    }

    double best_wall = 1e100;
    double best_cpu = 1e100;
    double staleness_sum = 0.0;
    size_t staleness_samples = 0;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const double c0 = ThreadCpuSeconds();
      double sum = 0.0;
      for (size_t i = 0; i < reader_iters; ++i) {
        sum += read(live);
        if constexpr (gems::EstimableSummary<S>) {
          if (track_staleness && writers > 0 && (i & 0xFFF) == 0) {
            const double w = static_cast<double>(
                written.load(std::memory_order_relaxed));
            if (w > 0) {
              const double lag = (w - live.Estimate()) / w;
              staleness_sum += lag > 0 ? lag : 0.0;
              ++staleness_samples;
            }
          }
        }
      }
      benchmark::DoNotOptimize(sum);
      const double cpu = ThreadCpuSeconds() - c0;
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      best_wall = std::min(best_wall, wall);
      best_cpu = std::min(best_cpu, cpu);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();

    const double n = static_cast<double>(reader_iters);
    const double wall_mops = n / best_wall / 1e6;
    const double cpu_mops = n / best_cpu / 1e6;
    if (writers == 0) {
      idle_wall_mops = wall_mops;
      idle_cpu_mops = cpu_mops;
    }
    rows->push_back(
        {name, writers, wall_mops, cpu_mops, wall_mops / idle_wall_mops,
         cpu_mops / idle_cpu_mops,
         staleness_samples > 0 ? staleness_sum / staleness_samples : 0.0});
  }
}

int RunConcurrentBench(const std::string& json_path, size_t num_items) {
  const std::vector<uint64_t> items = gems::DistinctItems(num_items, 42);
  const std::vector<uint64_t> zipf =
      gems::ZipfGenerator(1 << 20, 1.1, 42).Take(num_items);

  std::vector<ConcurrentWriterRow> writer_rows;
  ConcurrentWriterScale("hyperloglog", gems::HyperLogLog(12, 1), items,
                        &writer_rows);
  ConcurrentWriterScale("countmin", gems::CountMinSketch(4096, 4, 1), zipf,
                        &writer_rows);

  std::vector<ConcurrentReaderRow> reader_rows;
  // HLL readers take the cached-estimate path: one atomic load per query.
  // This is the gated row — it must stay within 20% of idle (CPU time)
  // with 8 writers saturating ingest.
  ConcurrentReaderUnderLoad(
      "hyperloglog", gems::HyperLogLog(12, 1),
      [](const gems::ConcurrentSummary<gems::HyperLogLog>& live) {
        return live.Estimate();
      },
      /*track_staleness=*/true, /*reader_iters=*/std::min(num_items * 16,
                                                          size_t{1} << 25),
      &reader_rows);
  // Count-Min readers take the pinned-epoch Query path (point estimate of
  // one probe key) — the heavier read that actually touches the published
  // buffer. Informational: pin/unpin traffic is the cost being observed.
  const uint64_t probe = zipf[0];
  ConcurrentReaderUnderLoad(
      "countmin", gems::CountMinSketch(4096, 4, 1),
      [probe](const gems::ConcurrentSummary<gems::CountMinSketch>& live) {
        return live.Query([probe](const gems::CountMinSketch& s) {
          return static_cast<double>(s.Estimate(probe));
        });
      },
      /*track_staleness=*/false, /*reader_iters=*/std::min(num_items * 2,
                                                           size_t{1} << 22),
      &reader_rows);

  std::string json = "{\n  \"bench\": \"e07_concurrent\",\n";
  json += "  \"items\": " + std::to_string(num_items) + ",\n";
  json += "  \"dispatch\": " + gems::simd::DispatchJson() + ",\n";
  json += "  \"layout\": " + gems::LayoutJson() + ",\n";
  json += "  \"writer_results\": [\n";
  char line[320];
  for (size_t i = 0; i < writer_rows.size(); ++i) {
    const ConcurrentWriterRow& row = writer_rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"sketch\": \"%s\", \"writers\": %zu, "
                  "\"concurrent_writer_mops\": %.2f, "
                  "\"striped_writer_mops\": %.2f, "
                  "\"writer_speedup\": %.2f}%s\n",
                  row.sketch, row.writers, row.concurrent_writer_mops,
                  row.striped_writer_mops, row.writer_speedup,
                  i + 1 < writer_rows.size() ? "," : "");
    json += line;
  }
  json += "  ],\n  \"reader_results\": [\n";
  for (size_t i = 0; i < reader_rows.size(); ++i) {
    const ConcurrentReaderRow& row = reader_rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"sketch\": \"%s\", \"writers\": %zu, "
                  "\"reader_mops\": %.2f, \"reader_cpu_mops\": %.2f, "
                  "\"reader_vs_idle\": %.3f, "
                  "\"reader_vs_idle_cpu\": %.3f, "
                  "\"staleness_frac_mean\": %.4f}%s\n",
                  row.sketch, row.writers, row.reader_mops,
                  row.reader_cpu_mops, row.reader_vs_idle,
                  row.reader_vs_idle_cpu, row.staleness_frac_mean,
                  i + 1 < reader_rows.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  std::FILE* f = std::fopen(json_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string scaling_json_path;
  std::string simd_json_path;
  std::string concurrent_json_path;
  std::string layout_json_path;
  size_t num_items = 1 << 20;
  size_t scaling_items = 1 << 21;
  size_t simd_items = 1 << 20;
  size_t concurrent_items = 1 << 21;
  size_t layout_items = 1 << 21;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--e07_json=", 0) == 0) {
      json_path = std::string(arg.substr(std::strlen("--e07_json=")));
    } else if (arg.rfind("--e07_items=", 0) == 0) {
      num_items = std::strtoull(argv[i] + std::strlen("--e07_items="),
                                nullptr, 10);
    } else if (arg.rfind("--e07_scaling_json=", 0) == 0) {
      scaling_json_path =
          std::string(arg.substr(std::strlen("--e07_scaling_json=")));
    } else if (arg.rfind("--e07_scaling_items=", 0) == 0) {
      scaling_items = std::strtoull(
          argv[i] + std::strlen("--e07_scaling_items="), nullptr, 10);
    } else if (arg.rfind("--e07_simd_json=", 0) == 0) {
      simd_json_path =
          std::string(arg.substr(std::strlen("--e07_simd_json=")));
    } else if (arg.rfind("--e07_simd_items=", 0) == 0) {
      simd_items = std::strtoull(argv[i] + std::strlen("--e07_simd_items="),
                                 nullptr, 10);
    } else if (arg.rfind("--e07_concurrent_json=", 0) == 0) {
      concurrent_json_path =
          std::string(arg.substr(std::strlen("--e07_concurrent_json=")));
    } else if (arg.rfind("--e07_concurrent_items=", 0) == 0) {
      concurrent_items = std::strtoull(
          argv[i] + std::strlen("--e07_concurrent_items="), nullptr, 10);
    } else if (arg.rfind("--e07_layout_json=", 0) == 0) {
      layout_json_path =
          std::string(arg.substr(std::strlen("--e07_layout_json=")));
    } else if (arg.rfind("--e07_layout_items=", 0) == 0) {
      layout_items = std::strtoull(
          argv[i] + std::strlen("--e07_layout_items="), nullptr, 10);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!layout_json_path.empty()) {
    return RunLayoutComparison(layout_json_path,
                               layout_items == 0 ? 1 << 21 : layout_items);
  }
  if (!concurrent_json_path.empty()) {
    return RunConcurrentBench(
        concurrent_json_path,
        concurrent_items == 0 ? 1 << 21 : concurrent_items);
  }
  if (!simd_json_path.empty()) {
    return RunSimdComparison(simd_json_path,
                             simd_items == 0 ? 1 << 20 : simd_items);
  }
  if (!scaling_json_path.empty()) {
    return RunThreadScaling(scaling_json_path,
                            scaling_items == 0 ? 1 << 21 : scaling_items);
  }
  if (!json_path.empty()) {
    return RunBatchedComparison(json_path, num_items == 0 ? 1 << 20
                                                          : num_items);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
