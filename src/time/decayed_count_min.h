#ifndef GEMS_TIME_DECAYED_COUNT_MIN_H_
#define GEMS_TIME_DECAYED_COUNT_MIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/estimate.h"
#include "core/io.h"
#include "core/wire.h"
#include "hash/hashed_batch.h"

/// \file
/// Exponentially decayed Count-Min: every count halves each `half_life`
/// time units, so the sketch answers "how hot is this item *now*" instead
/// of "how often has it ever appeared". This is the recency-weighted
/// frequency signal behind TinyLFU-style cache admission — the E16 bench
/// plays that simulation out against a plain Count-Min.
///
/// Decay is lazy: counters are stored in inflated units and one global
/// `scale` factor carries the decay, so Advance() is O(1) — no pass over
/// the matrix. The logical value of a counter is always stored * scale;
/// Update deposits weight / scale so its logical contribution is exactly
/// `weight` at the update's timestamp. When scale underflows toward
/// denormals the matrix is renormalized once (stored *= scale, scale = 1).

namespace gems {

/// Count-Min over exponentially decayed weights (flat layout).
class DecayedCountMin : public WireCodec<DecayedCountMin> {
 public:
  /// Wire-format type tag, for registry dispatch.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kDecayedCountMin;

  /// Counts halve every `half_life` (> 0) time units.
  DecayedCountMin(uint32_t width, uint32_t depth, double half_life,
                  uint64_t seed = 0);

  DecayedCountMin(const DecayedCountMin&) = default;
  DecayedCountMin& operator=(const DecayedCountMin&) = default;
  DecayedCountMin(DecayedCountMin&&) = default;
  DecayedCountMin& operator=(DecayedCountMin&&) = default;

  /// Adds `weight` (>= 0) at the newest timestamp seen.
  void Update(uint64_t item, int64_t weight = 1) {
    Deposit(item, static_cast<double>(weight));
  }

  /// Adds `weight` at `timestamp`; late timestamps clamp to the newest one
  /// seen (the late item decays as if it arrived now).
  void UpdateAt(uint64_t timestamp, uint64_t item, int64_t weight = 1) {
    Advance(timestamp);
    Deposit(item, static_cast<double>(weight));
  }

  /// Batched unit-weight ingest at the newest timestamp seen.
  void UpdateBatch(std::span<const uint64_t> items);

  /// Batched timestamped unit-weight ingest; equivalent to calling
  /// UpdateAt() per item, in order.
  void UpdateBatchTimed(std::span<const uint64_t> timestamps,
                        std::span<const uint64_t> items);

  /// Ingest from a hashed batch (re-hashes per row like Count-Min, so the
  /// batch's seed need not match); uses its timestamp column if present.
  void ApplyHashed(const HashedBatch& batch);

  /// Advances the decay clock; O(1). Late `now` clamps (no un-decay).
  void Advance(uint64_t now);

  /// Decayed point query: overestimate of the item's decayed weight as of
  /// last_timestamp(). Mutation-free.
  double Estimate(uint64_t item) const;

  /// Decayed point query with the one-sided Markov interval against the
  /// decayed total weight.
  gems::Estimate EstimateWithBounds(uint64_t item,
                                    double confidence = 0.95) const;

  /// Sum of all decayed weights as of last_timestamp().
  double TotalWeight() const { return total_ * scale_; }

  /// Counter-wise sum after aligning both decay clocks to the later of the
  /// two; identical shape, seed, and half_life required.
  Status Merge(const DecayedCountMin& other);

  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  double half_life() const { return half_life_; }
  uint64_t last_timestamp() const { return last_timestamp_; }
  size_t MemoryBytes() const { return counters_.size() * sizeof(double); }

  /// Payload codec; WireCodec supplies the envelope.
  /// Counters are written in logical (decayed) units, so a
  /// serialize -> deserialize -> serialize round trip is byte-identical.
  void PutPayload(ByteSink& sink) const;
  static Result<DecayedCountMin> GetPayload(ByteReader& payload);

 private:
  uint64_t Bucket(uint32_t row, uint64_t item) const;
  /// Adds `weight` logical units at the current clock.
  void Deposit(uint64_t item, double weight);
  /// Folds the global scale into the matrix when it nears underflow.
  void Renormalize();

  uint32_t width_;
  uint32_t depth_;
  uint64_t seed_;
  double half_life_;
  bool started_ = false;
  uint64_t last_timestamp_ = 0;
  // Logical value = stored * scale_; scale_ shrinks as time advances.
  double scale_ = 1.0;
  double total_ = 0.0;
  // depth_ rows of width_ counters, row-major (flat layout).
  std::vector<double> counters_;
  // Per-row derived hash seeds, same derivation as the flat Count-Min so
  // the two sketches see identical bucket collisions (fair E16 comparison).
  std::vector<uint64_t> row_seeds_;
};

}  // namespace gems

#endif  // GEMS_TIME_DECAYED_COUNT_MIN_H_
