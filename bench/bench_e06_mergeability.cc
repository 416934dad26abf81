// E6: mergeability — merged accuracy equals single-stream accuracy.
//
// Claim (Mergeable Summaries, PODS 2012 test-of-time; paper section 2):
// partitioning a stream across k nodes and merging the k summaries gives
// the same error guarantee as one summary over the whole stream. For
// register sketches (HLL) and linear sketches (Count-Min) the merged state
// is bit-identical; for KLL/Misra-Gries the guarantee (not the state) is
// preserved.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cardinality/hyperloglog.h"
#include "common/numeric.h"
#include "core/view.h"
#include "distributed/aggregation.h"
#include "distributed/thread_pool.h"
#include "frequency/count_min.h"
#include "frequency/misra_gries.h"
#include "quantiles/kll.h"
#include "simd/dispatch.h"
#include "workload/baselines.h"
#include "workload/generators.h"

namespace {

double Seconds(const std::chrono::steady_clock::time_point t0,
               const std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Times the sequential vs the parallel merge tree over copies of the same
/// leaves (best of `reps`), checks the roots are byte-identical, and prints
/// one timing row.
template <typename S>
void TimeMergeTree(const char* name, const std::vector<S>& leaves,
                   gems::ThreadPool* pool, int reps = 3) {
  double seq_best = 1e100, par_best = 1e100;
  std::vector<uint8_t> seq_bytes, par_bytes;
  for (int r = 0; r < reps; ++r) {
    std::vector<S> copy = leaves;
    auto t0 = std::chrono::steady_clock::now();
    auto seq_root = gems::AggregateTree(std::move(copy), 2, nullptr);
    auto t1 = std::chrono::steady_clock::now();
    seq_best = std::min(seq_best, Seconds(t0, t1));
    copy = leaves;
    t0 = std::chrono::steady_clock::now();
    auto par_root = gems::ParallelAggregateTree(std::move(copy), 2, pool);
    t1 = std::chrono::steady_clock::now();
    par_best = std::min(par_best, Seconds(t0, t1));
    if (r == 0) {
      seq_bytes = seq_root.value().Serialize();
      par_bytes = par_root.value().Serialize();
    }
  }
  std::printf("%-10s %3zu leaves   sequential %8.3f ms   parallel %8.3f ms"
              "   speedup %.2fx   roots %s\n",
              name, leaves.size(), seq_best * 1e3, par_best * 1e3,
              seq_best / par_best,
              seq_bytes == par_bytes ? "byte-identical" : "DIFFER");
}

/// Timing for one wide fan-in merge of serialized HLL envelopes. Three
/// ways to fold N envelopes into one sketch:
///   - deserialize+merge: materialize every envelope into a fresh heap
///     sketch, then Merge — the pre-view baseline.
///   - wrap+merge: SketchView wrap (full validation, checksum included)
///     and MergeFromView straight from the payload bytes — no allocation,
///     no register copy per envelope.
///   - trusted wrap+merge: WrapTrusted (structural checks only, checksum
///     skipped) for same-process fan-in, where the checksum pass is the
///     last remaining per-envelope cost that scales with sketch size.
struct FaninTiming {
  int fanin = 0;
  uint8_t precision = 0;
  double deserialize_merge_ms = 0;
  double view_merge_ms = 0;
  double trusted_view_merge_ms = 0;
  bool roots_identical = false;
  double speedup() const { return deserialize_merge_ms / trusted_view_merge_ms; }
  double speedup_verified() const { return deserialize_merge_ms / view_merge_ms; }
};

FaninTiming TimeViewMergeFanin(int fanin, uint8_t precision, int reps) {
  // Build the serialized inputs once: `fanin` HLL shards over disjoint
  // item ranges, each wrapped in its wire envelope.
  std::vector<std::vector<uint8_t>> envelopes;
  envelopes.reserve(fanin);
  for (int s = 0; s < fanin; ++s) {
    gems::HyperLogLog leaf(precision, 7);
    for (uint64_t item : gems::DistinctItems(2000, 900 + s)) {
      leaf.Update(item);
    }
    envelopes.push_back(leaf.Serialize());
  }

  FaninTiming out;
  out.fanin = fanin;
  out.precision = precision;
  out.deserialize_merge_ms = 1e100;
  out.view_merge_ms = 1e100;
  out.trusted_view_merge_ms = 1e100;
  std::vector<uint8_t> deser_root, view_root, trusted_root;
  for (int r = 0; r < reps; ++r) {
    // Baseline: materialize every envelope, then merge the sketches.
    auto t0 = std::chrono::steady_clock::now();
    auto acc = gems::HyperLogLog::Deserialize(envelopes[0]);
    for (int s = 1; s < fanin; ++s) {
      auto leaf = gems::HyperLogLog::Deserialize(envelopes[s]);
      (void)acc.value().Merge(leaf.value());
    }
    auto t1 = std::chrono::steady_clock::now();
    out.deserialize_merge_ms =
        std::min(out.deserialize_merge_ms, Seconds(t0, t1) * 1e3);
    if (r == 0) deser_root = acc.value().Serialize();

    // View path: materialize only the first envelope; fold the rest in
    // from borrowed payload bytes, fully validated.
    t0 = std::chrono::steady_clock::now();
    auto acc2 = gems::HyperLogLog::Deserialize(envelopes[0]);
    for (int s = 1; s < fanin; ++s) {
      auto view = gems::View<gems::HyperLogLog>::Wrap(envelopes[s]);
      (void)gems::MergeFromView(acc2.value(), view.value());
    }
    t1 = std::chrono::steady_clock::now();
    out.view_merge_ms = std::min(out.view_merge_ms, Seconds(t0, t1) * 1e3);
    if (r == 0) view_root = acc2.value().Serialize();

    // Trusted view path: the envelopes were serialized by this process a
    // moment ago, so skip the per-envelope checksum pass.
    t0 = std::chrono::steady_clock::now();
    auto acc3 = gems::HyperLogLog::Deserialize(envelopes[0]);
    for (int s = 1; s < fanin; ++s) {
      auto view = gems::View<gems::HyperLogLog>::WrapTrusted(envelopes[s]);
      (void)gems::MergeFromView(acc3.value(), view.value());
    }
    t1 = std::chrono::steady_clock::now();
    out.trusted_view_merge_ms =
        std::min(out.trusted_view_merge_ms, Seconds(t0, t1) * 1e3);
    if (r == 0) trusted_root = acc3.value().Serialize();
  }
  out.roots_identical = deser_root == view_root && deser_root == trusted_root;
  return out;
}

void PrintFaninTiming(const FaninTiming& t) {
  std::printf("HLL p=%d %d-way fan-in: deserialize+merge %8.3f ms   "
              "wrap+merge %8.3f ms (%.2fx)   trusted wrap+merge %8.3f ms "
              "(%.2fx)   roots %s\n",
              t.precision, t.fanin, t.deserialize_merge_ms, t.view_merge_ms,
              t.speedup_verified(), t.trusted_view_merge_ms, t.speedup(),
              t.roots_identical ? "byte-identical" : "DIFFER");
}

/// --e06_json mode: run only the fan-in comparison and emit one JSON
/// object (the CI bench-smoke artifact).
int RunFaninJson(const std::string& json_path, int fanin) {
  const FaninTiming t = TimeViewMergeFanin(fanin, 12, 5);
  PrintFaninTiming(t);
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"bench\": \"e06_view_merge_fanin\",\n"
                "  \"dispatch\": %s,\n"
                "  \"family\": \"hll\",\n"
                "  \"precision\": %d,\n"
                "  \"fanin\": %d,\n"
                "  \"deserialize_merge_ms\": %.6f,\n"
                "  \"view_merge_ms\": %.6f,\n"
                "  \"trusted_view_merge_ms\": %.6f,\n"
                "  \"speedup_verified\": %.4f,\n"
                "  \"speedup\": %.4f,\n"
                "  \"roots_identical\": %s\n"
                "}\n",
                gems::simd::DispatchJson().c_str(), t.precision, t.fanin,
                t.deserialize_merge_ms, t.view_merge_ms,
                t.trusted_view_merge_ms, t.speedup_verified(), t.speedup(),
                t.roots_identical ? "true" : "false");
  std::fputs(buf, stdout);
  std::FILE* f = std::fopen(json_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(buf, 1, std::strlen(buf), f);
  std::fclose(f);
  return t.roots_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int fanin = 1024;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--e06_json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--e06_json="));
    } else if (arg.rfind("--e06_fanin=", 0) == 0) {
      fanin = std::stoi(arg.substr(std::strlen("--e06_fanin=")));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!json_path.empty()) return RunFaninJson(json_path, fanin);

  constexpr int kShards = 256;
  constexpr int kTrials = 8;
  std::printf("E6: error of merged (%d-way) vs single-stream summaries, "
              "%d trials\n\n",
              kShards, kTrials);

  // --- HLL on 500k distinct items ---
  {
    std::vector<double> streamed_err, merged_err;
    for (int t = 0; t < kTrials; ++t) {
      const auto items = gems::DistinctItems(500000, 100 + t);
      gems::HyperLogLog streamed(12, t);
      std::vector<gems::HyperLogLog> leaves;
      for (int s = 0; s < kShards; ++s) leaves.emplace_back(12, t);
      for (size_t i = 0; i < items.size(); ++i) {
        streamed.Update(items[i]);
        leaves[i % kShards].Update(items[i]);
      }
      gems::AggregationStats stats;
      auto merged = gems::AggregateTree(std::move(leaves), 2, &stats);
      streamed_err.push_back(
          gems::RelativeError(streamed.Estimate(), 500000.0));
      merged_err.push_back(
          gems::RelativeError(merged.value().Estimate(), 500000.0));
      if (t == 0) {
        std::printf("HLL p=12: tree depth %d, %zu merges, %zu bytes "
                    "communicated\n",
                    stats.tree_depth, stats.num_merges,
                    stats.communication_bytes);
      }
    }
    std::printf("HLL      rel-RMSE: streamed %.4f   merged %.4f   "
                "ratio %.3f\n\n",
                gems::Rms(streamed_err), gems::Rms(merged_err),
                gems::Rms(merged_err) / gems::Rms(streamed_err));
  }

  // --- Count-Min on Zipf stream (state is exactly equal) ---
  {
    gems::ZipfGenerator zipf(100000, 1.2, 5);
    gems::CountMinSketch streamed(2048, 4, 6);
    std::vector<gems::CountMinSketch> leaves;
    for (int s = 0; s < kShards; ++s) leaves.emplace_back(2048, 4, 6);
    for (int i = 0; i < 500000; ++i) {
      const uint64_t item = zipf.Next();
      streamed.Update(item);
      leaves[i % kShards].Update(item);
    }
    auto merged = gems::AggregateTree(std::move(leaves), 4, nullptr);
    uint64_t diffs = 0;
    for (uint64_t probe = 0; probe < 10000; ++probe) {
      if (merged.value().Estimate(probe) !=
          streamed.Estimate(probe)) {
        ++diffs;
      }
    }
    std::printf("Count-Min: merged point queries differing from "
                "single-stream: %lu / 10000 (expect 0 — linear sketch)\n\n",
                (unsigned long)diffs);
  }

  // --- KLL on lognormal values ---
  {
    std::vector<double> streamed_err, merged_err;
    for (int t = 0; t < kTrials; ++t) {
      const auto data = gems::GenerateValues(
          gems::ValueDistribution::kLogNormal, 512000, 200 + t);
      gems::ExactQuantiles exact;
      gems::KllSketch streamed(200, 300 + t);
      std::vector<gems::KllSketch> leaves;
      for (int s = 0; s < kShards; ++s) leaves.emplace_back(200, 400 + s);
      for (size_t i = 0; i < data.size(); ++i) {
        streamed.Update(data[i]);
        leaves[i % kShards].Update(data[i]);
        exact.Update(data[i]);
      }
      auto merged = gems::AggregateTree(std::move(leaves), 2, nullptr);
      const double n = static_cast<double>(data.size());
      double s_err = 0, m_err = 0;
      for (double q : {0.1, 0.5, 0.9}) {
        s_err = std::max(
            s_err, std::abs(static_cast<double>(
                                exact.Rank(streamed.Quantile(q))) -
                            q * n) /
                       n);
        m_err = std::max(
            m_err, std::abs(static_cast<double>(
                                exact.Rank(merged.value().Quantile(q))) -
                            q * n) /
                       n);
      }
      streamed_err.push_back(s_err);
      merged_err.push_back(m_err);
    }
    std::printf("KLL k=200 max-rank-err: streamed %.5f   merged %.5f   "
                "ratio %.3f\n\n",
                gems::Mean(streamed_err), gems::Mean(merged_err),
                gems::Mean(merged_err) / gems::Mean(streamed_err));
  }

  // --- Misra-Gries guarantee after merging ---
  {
    gems::ZipfGenerator zipf(100000, 1.3, 9);
    gems::ExactFrequencies exact;
    std::vector<gems::MisraGries> leaves;
    for (int s = 0; s < kShards; ++s) leaves.emplace_back(200);
    const int64_t n = 512000;
    for (int64_t i = 0; i < n; ++i) {
      const uint64_t item = zipf.Next();
      exact.Update(item);
      leaves[i % kShards].Update(item);
    }
    auto merged = gems::AggregateTree(std::move(leaves), 2, nullptr);
    int64_t worst_undercount = 0;
    int violations = 0;
    for (const auto& [item, count] : exact.TopK(50)) {
      const int64_t estimate = merged.value().Estimate(item);
      worst_undercount = std::max(worst_undercount, count - estimate);
      if (count - estimate > merged.value().ErrorBound()) ++violations;
    }
    std::printf("Misra-Gries k=200: worst undercount %ld, claimed bound "
                "%ld, violations %d (expect 0), N/k = %ld\n",
                (long)worst_undercount, (long)merged.value().ErrorBound(),
                violations, (long)(n / 200));
  }

  // --- Merge-tree timing: sequential vs parallel AggregateTree ---
  // Same leaves, same pairing; the parallel tree runs each level's groups
  // concurrently and must produce a byte-identical root.
  {
    std::printf("\nMerge-tree timing (fanout 2, %u hardware threads):\n",
                std::thread::hardware_concurrency());
    gems::ThreadPool pool;
    {
      std::vector<gems::HyperLogLog> leaves;
      for (int s = 0; s < kShards; ++s) {
        leaves.emplace_back(14, 21);
        for (uint64_t item : gems::DistinctItems(20000, 500 + s)) {
          leaves.back().Update(item);
        }
      }
      TimeMergeTree("HLL p=14", leaves, &pool);
    }
    {
      gems::ZipfGenerator zipf(100000, 1.2, 23);
      std::vector<gems::CountMinSketch> leaves;
      for (int s = 0; s < kShards; ++s) {
        leaves.emplace_back(8192, 8, 24);
        for (int i = 0; i < 10000; ++i) leaves.back().Update(zipf.Next());
      }
      TimeMergeTree("Count-Min", leaves, &pool);
    }
    {
      std::vector<gems::KllSketch> leaves;
      for (int s = 0; s < kShards; ++s) {
        leaves.emplace_back(200, 600 + s);
        for (double v : gems::GenerateValues(
                 gems::ValueDistribution::kLogNormal, 20000, 700 + s)) {
          leaves.back().Update(v);
        }
      }
      TimeMergeTree("KLL k=200", leaves, &pool);
    }
  }

  // --- Wide fan-in from serialized envelopes: views vs materialization ---
  {
    std::printf("\nFan-in from serialized envelopes:\n");
    PrintFaninTiming(TimeViewMergeFanin(1024, 12, 3));
  }
  return 0;
}
