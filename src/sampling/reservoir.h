#ifndef GEMS_SAMPLING_RESERVOIR_H_
#define GEMS_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/io.h"
#include "core/wire.h"

/// \file
/// Reservoir sampling — the paper's "earliest instance of something we
/// could reasonably refer to as a sketch algorithm". Algorithm R draws a
/// uniform sample of k items from a stream of unknown length; the weighted
/// variant (Efraimidis-Spirakis A-ES) samples proportionally to weight by
/// keeping the k largest keys u^(1/w). Both merge, which is what the
/// distributed substrate uses for sample aggregation.

namespace gems {

/// Uniform k-sample without replacement (Algorithm R).
class ReservoirSampler : public WireCodec<ReservoirSampler> {
 public:
  /// Wire-format type tag, for View<ReservoirSampler> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kReservoir;

  ReservoirSampler(size_t k, uint64_t seed);

  ReservoirSampler(const ReservoirSampler&) = default;
  ReservoirSampler& operator=(const ReservoirSampler&) = default;
  ReservoirSampler(ReservoirSampler&&) = default;
  ReservoirSampler& operator=(ReservoirSampler&&) = default;

  /// Offers one stream item to the reservoir.
  void Update(uint64_t item);

  /// Batched ingest: bulk-copies the fill phase (no coin flips are drawn
  /// while the reservoir has room, matching Update()), then runs the
  /// Algorithm R replacement loop. State including the Rng is
  /// byte-identical to per-item Update().
  void UpdateBatch(std::span<const uint64_t> items);

  /// The current sample (size min(k, items seen)).
  const std::vector<uint64_t>& Sample() const { return sample_; }

  uint64_t ItemsSeen() const { return seen_; }
  size_t k() const { return k_; }

  /// Merges so the result is a uniform sample of the concatenated streams
  /// (per the mergeable-summaries construction: draw each slot from one of
  /// the two reservoirs with probability proportional to its stream size).
  Status Merge(const ReservoirSampler& other);

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<ReservoirSampler> GetPayload(ByteReader& payload);

 private:
  size_t k_;
  uint64_t seen_ = 0;
  Rng rng_;
  std::vector<uint64_t> sample_;
};

/// Weighted reservoir (A-ES): P(item in sample) is proportional to weight
/// for small weights; exact weighted sampling without replacement.
class WeightedReservoirSampler {
 public:
  WeightedReservoirSampler(size_t k, uint64_t seed);

  WeightedReservoirSampler(const WeightedReservoirSampler&) = default;
  WeightedReservoirSampler& operator=(const WeightedReservoirSampler&) =
      default;
  WeightedReservoirSampler(WeightedReservoirSampler&&) = default;
  WeightedReservoirSampler& operator=(WeightedReservoirSampler&&) = default;

  /// Offers an item with weight > 0.
  void Update(uint64_t item, double weight);

  /// Current sample with the A-ES keys (largest-key items).
  std::vector<uint64_t> Sample() const;

  size_t k() const { return k_; }

  /// Merge = keep the k largest keys across both samplers (exact).
  Status Merge(const WeightedReservoirSampler& other);

 private:
  struct Keyed {
    double key;
    uint64_t item;
    bool operator<(const Keyed& other) const { return key < other.key; }
  };

  void Offer(double key, uint64_t item);

  size_t k_;
  Rng rng_;
  // Min-heap on key: the smallest retained key is at front.
  std::vector<Keyed> heap_;
};

}  // namespace gems

#endif  // GEMS_SAMPLING_RESERVOIR_H_
