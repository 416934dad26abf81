// sketch_ingest: the kernel layer alone. Seven sketch families, built by
// registry name and driven through AnySketch, ingest one Zipf(1.1) stream
// over a shuffled 2^24-item universe in 65,536-item UpdateBatch chunks;
// each family has 8 shards fed round-robin, which are then merged into a
// root through the zero-copy path (SerializeTo -> SketchRegistry::Wrap ->
// MergeFromView). Large batches into few sketches: the cache-friendly
// contrast to serve_write's 64-item batches over thousands of keys.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/registry.h"
#include "hash/hashed_batch.h"
#include "workloads.h"

namespace gemsbench {
namespace {

constexpr const char* kFamilies[] = {
    "hyperloglog", "hllpp", "count_min",    "count_sketch",
    "space_saving", "kll",  "blocked_bloom",
};
constexpr size_t kNumFamilies = sizeof(kFamilies) / sizeof(kFamilies[0]);
constexpr const char* kFamilySpans[kNumFamilies] = {
    "sketch.hyperloglog.update_batch", "sketch.hllpp.update_batch",
    "sketch.count_min.update_batch",   "sketch.count_sketch.update_batch",
    "sketch.space_saving.update_batch", "sketch.kll.update_batch",
    "sketch.blocked_bloom.update_batch",
};
/// Families whose merged root must be byte-identical to one sketch fed the
/// whole stream (register max, counter sums, bit OR).
constexpr const char* kLinearFamilies[] = {
    "hyperloglog", "count_min", "count_sketch", "blocked_bloom",
};
constexpr size_t kShards = 8;
constexpr size_t kChunk = 65536;
constexpr uint64_t kUniverse = uint64_t{1} << 24;
constexpr double kZipfExponent = 1.1;
constexpr size_t kHeavyItems = 100;

/// Zipf sampler over ranks 1..n by rejection-inversion (Hörmann and
/// Derflinger 1996): O(1) per draw with no table, where an inverse-CDF
/// table over 2^24 ranks would cost 128 MB and a binary search per item.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
    h_x1_ = HIntegral(1.5) - 1.0;
    h_n_ = HIntegral(static_cast<double>(n) + 0.5);
    slack_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }

  uint64_t Next(gems::Rng& rng) const {
    for (;;) {
      const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
      const double x = HIntegralInverse(u);
      const double k = std::clamp(std::floor(x + 0.5), 1.0,
                                  static_cast<double>(n_));
      if (k - x <= slack_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<uint64_t>(k);
      }
    }
  }

 private:
  double H(double x) const { return std::exp(-s_ * std::log(x)); }
  double HIntegral(double x) const {
    const double lx = std::log(x);
    return Expm1OverX((1.0 - s_) * lx) * lx;
  }
  double HIntegralInverse(double x) const {
    const double t = std::max(-1.0, x * (1.0 - s_));
    return std::exp(Log1pOverX(t) * x);
  }
  static double Log1pOverX(double x) {
    return std::abs(x) > 1e-8 ? std::log1p(x) / x
                              : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double Expm1OverX(double x) {
    return std::abs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x));
  }

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double slack_;
};

gems::AnySketch MakeFamily(const char* name) {
  return gems::SketchRegistry::Global().FindByName(name)->make_default();
}

std::vector<std::vector<gems::AnySketch>> MakeShards() {
  std::vector<std::vector<gems::AnySketch>> shards(kNumFamilies);
  for (size_t f = 0; f < kNumFamilies; ++f) {
    for (size_t s = 0; s < kShards; ++s) {
      shards[f].push_back(MakeFamily(kFamilies[f]));
    }
  }
  return shards;
}

size_t FamilyIndex(const char* name) {
  for (size_t f = 0; f < kNumFamilies; ++f) {
    if (std::string(kFamilies[f]) == name) return f;
  }
  return kNumFamilies;
}

/// Exact answers for the accuracy checks: distinct count and the heaviest
/// items with their true counts.
struct Exact {
  double distinct = 0.0;
  std::vector<std::pair<uint64_t, uint64_t>> heavy;  // (count, item)
};

Exact ExactCounts(std::vector<uint64_t> items) {
  std::sort(items.begin(), items.end());
  Exact exact;
  std::vector<std::pair<uint64_t, uint64_t>> runs;
  for (size_t i = 0; i < items.size();) {
    size_t j = i;
    while (j < items.size() && items[j] == items[i]) ++j;
    runs.emplace_back(j - i, items[i]);
    i = j;
  }
  exact.distinct = static_cast<double>(runs.size());
  const size_t k = std::min(kHeavyItems, runs.size());
  std::partial_sort(runs.begin(), runs.begin() + k, runs.end(),
                    std::greater<>());
  exact.heavy.assign(runs.begin(), runs.begin() + k);
  return exact;
}

}  // namespace

void RunSketchIngest(Context& ctx) {
  const Options& options = ctx.options;
  Report& report = ctx.report;
  Lane* lane = ctx.lane;
  // One pass is 8 chunks, one per shard: about 0.6 s on the seed code, so
  // a run repeats each chunk 20-30 times, each pass on the next CPU.
  const size_t num_items = options.smoke ? size_t{1} << 17 : size_t{1} << 19;
  const gems::SketchRegistry& registry = gems::SketchRegistry::Global();

  int64_t t = NowNs();
  uint64_t span = lane != nullptr ? lane->Begin("phase.gen") : 0;
  std::vector<uint64_t> stream(num_items);
  {
    gems::Rng rng(DeriveSeed(options.seed, 0));
    const ZipfSampler zipf(kUniverse, kZipfExponent);
    const uint64_t salt = DeriveSeed(options.seed, 1);
    // Rank -> item through a bijection, so frequency is unrelated to the
    // item's value.
    for (uint64_t& item : stream) item = gems::Mix64(zipf.Next(rng) ^ salt);
  }
  const double gen_s = (NowNs() - t) / 1e9;
  if (lane != nullptr) lane->End(span);
  const size_t num_chunks = (num_items + kChunk - 1) / kChunk;
  const auto chunk = [&](size_t i) {
    return std::span<const uint64_t>(
        stream.data() + i * kChunk, std::min(kChunk, num_items - i * kChunk));
  };

  ResetPeakRss();
  const double base_rss = ProcStatusMib(0, "VmRSS");

  std::vector<double> setup_s, merge_ms, rounds_us;
  std::vector<gems::AnySketch> roots(kNumFamilies);
  uint64_t ingested = 0;
  int passes = 0;
  std::vector<uint64_t> hashes(kChunk);
  std::vector<uint8_t> buffer;

  const uint64_t measure = lane != nullptr ? lane->Begin("phase.measure") : 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  CpuRotation cpus;
  for (; passes == 0 || NowNs() < deadline; ++passes) {
    cpus.Next();
    // Set-up is building every family's shards from the registry; each
    // pass starts from fresh shards, so every pass times one.
    t = NowNs();
    std::vector<std::vector<gems::AnySketch>> shards;
    {
      Scoped s(lane, "sketch.setup", measure);
      shards = MakeShards();
    }
    setup_s.push_back((NowNs() - t) / 1e9);

    for (size_t i = 0; i < num_chunks; ++i) {
      const std::span<const uint64_t> items = chunk(i);
      const int64_t t0 = NowNs();
      for (size_t f = 0; f < kNumFamilies; ++f) {
        const int64_t f0 = lane != nullptr ? NowNs() : 0;
        if (!shards[f][i % kShards].UpdateBatch(items).ok()) {
          report.Fail(std::string("UpdateBatch on ") + kFamilies[f]);
        }
        if (lane != nullptr) lane->Add(kFamilySpans[f], measure, i, f0, NowNs());
      }
      const int64_t t1 = NowNs();
      rounds_us.push_back((t1 - t0) / 1e3);
      report.Attempt(1);
      ingested += items.size();
      if (lane != nullptr) {
        Scoped h(lane, "hash.hash_batch", measure, i);
        gems::HashBatch(items, 0, hashes.data());
      }
    }

    t = NowNs();
    for (size_t f = 0; f < kNumFamilies; ++f) {
      gems::AnySketch root = MakeFamily(kFamilies[f]);
      for (size_t s = 0; s < kShards; ++s) {
        const int64_t a = NowNs();
        buffer.clear();
        gems::ByteSink sink(&buffer);
        shards[f][s].SerializeTo(sink);
        const int64_t b = NowNs();
        gems::Result<gems::AnySketchView> view = registry.Wrap(buffer);
        const int64_t c = NowNs();
        const gems::Status merged =
            view.ok() ? root.MergeFromView(view.value().sketch_view())
                      : view.status();
        const int64_t d = NowNs();
        report.Attempt(1);
        if (!merged.ok()) {
          report.Fail(std::string("merge of ") + kFamilies[f] + ": " +
                      merged.ToString());
        }
        if (lane != nullptr) {
          lane->Add("core.serialize", measure, s, a, b);
          lane->Add("core.wrap", measure, s, b, c);
          lane->Add("core.merge_from_view", measure, s, c, d);
        }
      }
      roots[f] = std::move(root);
    }
    merge_ms.push_back((NowNs() - t) / 1e6);
  }
  if (lane != nullptr) lane->End(measure);
  const double peak_growth = ProcStatusMib(0, "VmHWM") - base_rss;

  span = lane != nullptr ? lane->Begin("phase.verify") : 0;
  // Byte identity: the merged roots of the linear families equal one
  // sketch fed the whole stream.
  for (const char* name : kLinearFamilies) {
    gems::AnySketch single = MakeFamily(name);
    for (size_t i = 0; i < num_chunks; ++i) (void)single.UpdateBatch(chunk(i));
    if (single.Serialize() != roots[FamilyIndex(name)].Serialize()) {
      report.Fail(std::string("merged ") + name +
                  " root differs from a single sketch");
    }
  }
  // Accuracy against exact answers, within EXPERIMENTS.md's bounds:
  // distinct counts within 3 standard errors (1.04/sqrt(m)), Count-Min
  // overestimates of the heaviest items within eps * N.
  const Exact exact = ExactCounts(stream);
  double worst = 0.0;
  const struct {
    const char* name;
    double registers;
  } distinct[] = {{"hyperloglog", 4096.0}, {"hllpp", 16384.0}};
  for (const auto& d : distinct) {
    gems::Result<gems::Estimate> est =
        roots[FamilyIndex(d.name)].EstimateWithBounds();
    const double err = est.ok()
                           ? std::abs(est.value().value - exact.distinct) /
                                 exact.distinct
                           : 1.0;
    worst = std::max(worst, err);
    if (err > 3.0 * 1.04 / std::sqrt(d.registers)) {
      report.Fail(std::string(d.name) + " distinct estimate out of bound");
    }
  }
  constexpr double kCountMinEps = 0.001;  // The registry default's guarantee.
  const double n = static_cast<double>(num_items);
  uint64_t out_of_bound = 0;
  for (const auto& [count, item] : exact.heavy) {
    gems::Result<gems::Estimate> est =
        roots[FamilyIndex("count_min")].EstimateItemWithBounds(item);
    const double truth = static_cast<double>(count);
    const double over = est.ok() ? est.value().value - truth : n;
    worst = std::max(worst, std::abs(over) / truth);
    if (over < 0.0 || over > kCountMinEps * n) ++out_of_bound;
  }
  if (out_of_bound > 0) {
    report.Fail("count_min heavy-item estimates out of bound", out_of_bound);
  }
  if (lane != nullptr) lane->End(span);

  span = lane != nullptr ? lane->Begin("phase.report") : 0;
  Common common;
  common.setup_s = setup_s;
  // Every pass repeats the same chunks into fresh shards.
  const Window fastest =
      FastestRepeats(rounds_us, kChunk * kNumFamilies, num_chunks);
  common.throughput = fastest.rate;
  common.latency_p50_us = fastest.p50_us;
  common.latency_us = rounds_us;
  common.state_ms = merge_ms;
  common.peak_rss_mb = peak_growth;
  ReportCommon(report, common);
  report.Detail("passes", std::to_string(passes));
  report.Detail("items_per_pass", std::to_string(num_items));
  report.Detail("distinct_items", std::to_string(exact.distinct));

  if (ctx.trace != nullptr) {
    const std::map<std::string, SpanStats> st = ctx.trace->Aggregate();
    const auto busy_ns = [&](const char* name) {
      auto it = st.find(name);
      return it == st.end() ? 0.0 : it->second.busy_ns;
    };
    const double items = static_cast<double>(ingested);
    for (size_t f = 0; f < kNumFamilies; ++f) {
      report.Layer(std::string("sketch.") + kFamilies[f] + ".update_ns_per_item",
                   busy_ns(kFamilySpans[f]) / items, "ns");
    }
    report.Layer("hash.hash_batch_ns_per_item",
                 busy_ns("hash.hash_batch") / items, "ns");
    size_t state_bytes = 0;
    for (const gems::AnySketch& root : roots) {
      state_bytes += root.Serialize().size();
    }
    report.Layer("sketch.state_bytes", static_cast<double>(state_bytes),
                 "bytes");
    report.Layer("sketch.estimate_rel_error", worst, "ratio");
    report.Layer("core.serialize_ms", busy_ns("core.serialize") / 1e6 / passes,
                 "ms");
    report.Layer("core.wrap_ms", busy_ns("core.wrap") / 1e6 / passes, "ms");
    report.Layer("core.merge_from_view_ms",
                 busy_ns("core.merge_from_view") / 1e6 / passes, "ms");
    report.Layer("workload.gen_s", gen_s, "s");
  }
  if (lane != nullptr) lane->End(span);
}

}  // namespace gemsbench
