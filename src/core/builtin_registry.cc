#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>

#include "cardinality/flajolet_martin.h"
#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "cardinality/linear_counting.h"
#include "cardinality/loglog.h"
#include "cardinality/morris.h"
#include "common/check.h"
#include "core/registry.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"
#include "graph/agm.h"
#include "membership/blocked_bloom.h"
#include "membership/bloom.h"
#include "membership/counting_bloom.h"
#include "moments/ams.h"
#include "quantiles/gk.h"
#include "quantiles/kll.h"
#include "quantiles/qdigest.h"
#include "quantiles/tdigest.h"
#include "sampling/l0_sampler.h"
#include "sampling/reservoir.h"
#include "similarity/minhash.h"
#include "time/decayed_count_min.h"
#include "time/exponential_histogram.h"
#include "time/sliding_count_min.h"
#include "time/sliding_hll.h"

/// \file
/// Registers every built-in serializable sketch with the global
/// SketchRegistry. Kept out of registry.cc so the core library does not
/// link against the sketch families; only consumers that need
/// type-agnostic deserialization (CLI, engine checkpoints, tests) pull
/// this translation unit in via the gems_registry target.

namespace gems {
namespace {

std::string Fmt(const char* format, double value) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

constexpr uint32_t kMaxTimedPanes = 1u << 20;

/// Shared validation for the window-geometry half of TimedSketchParams:
/// zero fields fall back to the given defaults, a decay parameter on a
/// windowed type is rejected, and the resolved geometry is range-checked.
Status ResolveWindowParams(const TimedSketchParams& params,
                           uint64_t default_pane_width,
                           uint32_t default_num_panes, uint64_t* pane_width,
                           uint32_t* num_panes) {
  if (params.half_life != 0.0) {
    return Status::InvalidArgument(
        "half_life does not apply to a pane-windowed sketch");
  }
  *pane_width = params.pane_width != 0 ? params.pane_width
                                       : default_pane_width;
  *num_panes = params.num_panes != 0 ? params.num_panes : default_num_panes;
  if (*num_panes > kMaxTimedPanes) {
    return Status::InvalidArgument("num_panes too large");
  }
  return Status::Ok();
}

void RegisterAll(SketchRegistry& r) {
  // Every Register call below introduces a fresh id, so failures would be
  // programmer error (duplicate id), not runtime conditions.
  auto must = [](Status s) { GEMS_CHECK(s.ok()); };

  must(RegisterSketchType<MorrisCounter>(
      r,
      [](const MorrisCounter& s) { return Fmt("count ~ %.0f", s.Estimate()); },
      [] { return MorrisCounter(); }));
  must(RegisterSketchType<LinearCounting>(
      r,
      [](const LinearCounting& s) { return Fmt("distinct ~ %.0f", s.Estimate()); },
      [] { return LinearCounting(1 << 16); }));
  must(RegisterSketchType<FlajoletMartin>(
      r,
      [](const FlajoletMartin& s) { return Fmt("distinct ~ %.0f", s.Estimate()); },
      [] { return FlajoletMartin(64); }));
  must(RegisterSketchType<LogLog>(
      r,
      [](const LogLog& s) { return Fmt("distinct ~ %.0f", s.Estimate()); },
      [] { return LogLog(12); }));
  must(RegisterSketchType<HyperLogLog>(
      r,
      [](const HyperLogLog& s) { return Fmt("distinct ~ %.0f", s.Estimate()); },
      [] { return HyperLogLog(12); }));
  must(RegisterSketchType<HllPlusPlus>(
      r,
      [](const HllPlusPlus& s) { return Fmt("distinct ~ %.0f", s.Estimate()); },
      [] { return HllPlusPlus(14); }));
  must(RegisterSketchType<KmvSketch>(
      r,
      [](const KmvSketch& s) { return Fmt("distinct ~ %.0f", s.Estimate()); },
      [] { return KmvSketch(1024); }));

  must(RegisterSketchType<BloomFilter>(
      r,
      [](const BloomFilter& s) {
        return Fmt("membership filter, fpr ~ %.4g", s.EstimatedFpr());
      },
      [] { return BloomFilter::ForCapacity(1 << 20, 0.01); }));
  must(RegisterSketchType<CountingBloomFilter>(
      r,
      [](const CountingBloomFilter& s) {
        return Fmt("counting filter, %.0f counters",
                   static_cast<double>(s.num_counters()));
      },
      [] { return CountingBloomFilter(1 << 20, 4); }));
  must(RegisterSketchType<BlockedBloomFilter>(
      r,
      [](const BlockedBloomFilter& s) {
        return Fmt("blocked filter, %.0f bits",
                   static_cast<double>(s.num_bits()));
      },
      [] { return BlockedBloomFilter(1 << 23, 4); }));

  must(RegisterSketchType<CountMinSketch>(
      r,
      [](const CountMinSketch& s) {
        return Fmt("frequency table, total weight %.0f",
                   static_cast<double>(s.TotalWeight()));
      },
      [] { return CountMinSketch::ForGuarantee(0.001, 0.01); }));
  must(RegisterSketchType<CountSketch>(
      r,
      [](const CountSketch& s) {
        return Fmt("frequency table, %.0f counters",
                   static_cast<double>(s.width()) * s.depth());
      },
      [] { return CountSketch(2048, 5); }));
  must(RegisterSketchType<MisraGries>(
      r,
      [](const MisraGries& s) {
        return Fmt("heavy hitters, total weight %.0f",
                   static_cast<double>(s.TotalWeight()));
      },
      [] { return MisraGries(256); }));
  must(RegisterSketchType<SpaceSaving>(
      r,
      [](const SpaceSaving& s) {
        std::string out = Fmt("top-k, total weight %.0f",
                              static_cast<double>(s.TotalWeight()));
        const auto top = s.TopK(1);
        if (!top.empty()) {
          out += Fmt("; heaviest count %.0f",
                     static_cast<double>(top.front().count));
        }
        return out;
      },
      [] { return SpaceSaving(1024); }));

  must(RegisterSketchType<GreenwaldKhanna>(
      r,
      [](const GreenwaldKhanna& s) {
        if (s.Count() == 0) return std::string("quantiles, empty");
        return Fmt("quantiles, median ~ %.6g", s.Quantile(0.5)) +
               Fmt(" over %.0f values", static_cast<double>(s.Count()));
      },
      [] { return GreenwaldKhanna(0.01); }));
  must(RegisterSketchType<KllSketch>(
      r,
      [](const KllSketch& s) {
        if (s.Count() == 0) return std::string("quantiles, empty");
        return Fmt("quantiles, median ~ %.6g", s.Quantile(0.5)) +
               Fmt(" over %.0f values", static_cast<double>(s.Count()));
      },
      [] { return KllSketch(); }));
  must(RegisterSketchType<QDigest>(
      r,
      [](const QDigest& s) {
        if (s.Count() == 0) return std::string("quantiles, empty");
        return Fmt("quantiles, median ~ %.6g",
                   static_cast<double>(s.Quantile(0.5))) +
               Fmt(" over %.0f values", static_cast<double>(s.Count()));
      },
      [] { return QDigest(32, 64); }));
  must(RegisterSketchType<TDigest>(
      r,
      [](const TDigest& s) {
        if (s.Count() == 0) return std::string("quantiles, empty");
        return Fmt("quantiles, median ~ %.6g", s.Quantile(0.5)) +
               Fmt(" over %.0f values", static_cast<double>(s.Count()));
      },
      [] { return TDigest(); }));

  must(RegisterSketchType<ReservoirSampler>(
      r,
      [](const ReservoirSampler& s) {
        return Fmt("uniform sample of %.0f items",
                   static_cast<double>(s.Sample().size()));
      },
      [] { return ReservoirSampler(256, 42); }));
  must(RegisterSketchType<L0Sampler>(
      r,
      [](const L0Sampler&) { return std::string("l0 support sampler"); },
      [] { return L0Sampler(42); }));

  must(RegisterSketchType<AmsSketch>(
      r,
      [](const AmsSketch& s) { return Fmt("F2 ~ %.6g", s.EstimateF2()); },
      [] { return AmsSketch(64, 8); }));

  must(RegisterSketchType<MinHashSketch>(
      r,
      [](const MinHashSketch& s) {
        return Fmt("minhash signature, k = %.0f",
                   static_cast<double>(s.k()));
      },
      [] { return MinHashSketch(128); }));

  must(RegisterSketchType<AgmSketch>(
      r,
      [](const AgmSketch& s) {
        return Fmt("graph sketch over %.0f vertices",
                   static_cast<double>(s.num_vertices()));
      },
      std::function<AgmSketch()>()));  // No sensible default vertex count.

  // The time family: window/decay parameters flow in through make_timed
  // (the gemsd CREATE path); make_default picks telemetry-flavored
  // defaults (seconds-resolution clocks, minute panes).
  must(RegisterSketchType<SlidingHyperLogLog>(
      r,
      [](const SlidingHyperLogLog& s) {
        return Fmt("windowed distinct ~ %.0f", s.Estimate()) +
               Fmt(" over trailing %.0f time units",
                   static_cast<double>(s.WindowSpan()));
      },
      [] { return SlidingHyperLogLog(12, 60, 10); },
      [](const TimedSketchParams& params) -> Result<SlidingHyperLogLog> {
        uint64_t pane_width = 0;
        uint32_t num_panes = 0;
        if (Status s = ResolveWindowParams(params, 60, 10, &pane_width,
                                           &num_panes);
            !s.ok()) {
          return s;
        }
        return SlidingHyperLogLog(12, pane_width, num_panes);
      }));
  must(RegisterSketchType<SlidingCountMin>(
      r,
      [](const SlidingCountMin& s) {
        return Fmt("windowed frequency table, window weight %.0f",
                   static_cast<double>(s.TotalWeight()));
      },
      [] { return SlidingCountMin(2048, 4, 60, 10); },
      [](const TimedSketchParams& params) -> Result<SlidingCountMin> {
        uint64_t pane_width = 0;
        uint32_t num_panes = 0;
        if (Status s = ResolveWindowParams(params, 60, 10, &pane_width,
                                           &num_panes);
            !s.ok()) {
          return s;
        }
        return SlidingCountMin(2048, 4, pane_width, num_panes);
      }));
  must(RegisterSketchType<DecayedCountMin>(
      r,
      [](const DecayedCountMin& s) {
        return Fmt("decayed frequency table, decayed weight %.1f",
                   s.TotalWeight());
      },
      [] { return DecayedCountMin(2048, 4, 300.0); },
      [](const TimedSketchParams& params) -> Result<DecayedCountMin> {
        if (params.pane_width != 0 || params.num_panes != 0) {
          return Status::InvalidArgument(
              "window geometry does not apply to a decayed sketch");
        }
        if (!std::isfinite(params.half_life) || params.half_life < 0.0) {
          return Status::InvalidArgument("half_life must be finite and > 0");
        }
        const double half_life =
            params.half_life != 0.0 ? params.half_life : 300.0;
        return DecayedCountMin(2048, 4, half_life);
      }));
  must(RegisterSketchType<ExponentialHistogram>(
      r,
      [](const ExponentialHistogram& s) {
        return Fmt("windowed event count ~ %.0f", s.Estimate()) +
               Fmt(" over trailing %.0f time units",
                   static_cast<double>(s.window()));
      },
      [] { return ExponentialHistogram(3600, 0.05); },
      [](const TimedSketchParams& params) -> Result<ExponentialHistogram> {
        // The single window knob rides pane_width; there are no panes.
        if (params.num_panes != 0) {
          return Status::InvalidArgument(
              "num_panes does not apply to an exponential histogram");
        }
        if (params.half_life != 0.0) {
          return Status::InvalidArgument(
              "half_life does not apply to an exponential histogram");
        }
        const uint64_t window =
            params.pane_width != 0 ? params.pane_width : 3600;
        return ExponentialHistogram(window, 0.05);
      }));
}

}  // namespace

void RegisterBuiltinSketches() {
  static std::once_flag once;
  std::call_once(once, [] { RegisterAll(SketchRegistry::Global()); });
}

}  // namespace gems
