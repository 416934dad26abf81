#ifndef GEMS_CARDINALITY_MORRIS_H_
#define GEMS_CARDINALITY_MORRIS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/estimate.h"
#include "core/wire.h"

/// \file
/// Morris approximate counter (Morris 1977): counts n events in
/// O(log log n) bits by incrementing a small register probabilistically.
/// The paper opens its history of sketching with this algorithm; PODS 2022's
/// best paper (Nelson & Yu) revisited its optimality.

namespace gems {

/// One Morris counter with accuracy parameter `a` ("Morris-a").
///
/// The register c stores (approximately) log_{1+1/a}(1 + n/a); each event
/// increments c with probability (1+1/a)^{-c}. The estimator
/// n̂ = a((1+1/a)^c - 1) is unbiased with variance n(n-1)/(2a), so the
/// standard error is roughly n/sqrt(2a). Larger `a` trades bits for
/// accuracy.
class MorrisCounter : public WireCodec<MorrisCounter> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kMorrisCounter;

  /// `a` >= 1 controls accuracy; `seed` drives the coin flips.
  explicit MorrisCounter(double a = 16.0, uint64_t seed = 0);

  MorrisCounter(const MorrisCounter&) = default;
  MorrisCounter& operator=(const MorrisCounter&) = default;
  MorrisCounter(MorrisCounter&&) = default;
  MorrisCounter& operator=(MorrisCounter&&) = default;

  /// Records one event.
  void Increment();

  /// Records `count` events (loops; kept simple rather than batched).
  void IncrementBy(uint64_t count);

  /// Unbiased estimate of the number of events seen.
  double Estimate() const;

  /// Estimate with a normal-approximation confidence interval from the
  /// known variance n(n-1)/(2a).
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  /// Number of bits needed to store the register value.
  int RegisterBits() const;

  /// Raw register value (for tests and the bit-width experiment).
  uint64_t register_value() const { return register_; }
  double a() const { return a_; }

  /// Folds another counter's events into this one. Exact merging of Morris
  /// registers is not possible; this re-encodes the summed estimates, which
  /// preserves unbiasedness of the estimate but adds (bounded) variance.
  Status Merge(const MorrisCounter& other);

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<MorrisCounter> GetPayload(ByteReader& payload);

 private:
  double a_;
  uint64_t register_ = 0;
  Rng rng_;
};

/// Averages `replicas` independent Morris counters to cut the standard
/// error by sqrt(replicas) — the classic variance-reduction wrapper.
class MorrisEnsemble {
 public:
  MorrisEnsemble(int replicas, double a, uint64_t seed);

  void Increment();
  double Estimate() const;

 private:
  std::vector<MorrisCounter> counters_;
};

}  // namespace gems

#endif  // GEMS_CARDINALITY_MORRIS_H_
