#ifndef GEMS_SAMPLING_L0_SAMPLER_H_
#define GEMS_SAMPLING_L0_SAMPLER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/wire.h"

/// \file
/// L0 sampling from turnstile streams (Jowhari, Saglam & Tardos, PODS 2011
/// — the paper's "Tight bounds for Lp samplers" test-of-time entry).
/// Returns a (near-)uniform nonzero coordinate of a vector maintained under
/// positive and negative updates. The key primitive behind the AGM graph
/// sketches (src/graph): sample an incident edge of a node's
/// edge-incidence vector even after cancellations.
///
/// Construction: geometric levels; level j keeps only items whose hash has
/// j leading-zero bits, each level summarized by an s-sparse recovery
/// structure built from one-sparse testers (sum/weighted-sum/fingerprint).

namespace gems {

/// Detects whether the (item, weight) multiset it has absorbed is exactly
/// one-sparse, and if so recovers the single item and weight.
class OneSparseRecovery {
 public:
  explicit OneSparseRecovery(uint64_t seed = 0);

  OneSparseRecovery(const OneSparseRecovery&) = default;
  OneSparseRecovery& operator=(const OneSparseRecovery&) = default;

  /// Adds `weight` (may be negative) at coordinate `item`.
  void Update(uint64_t item, int64_t weight);

  struct Recovered {
    uint64_t item;
    int64_t weight;
  };

  /// Empty vector, one nonzero coordinate, or "dense" (anything else).
  enum class State { kZero, kOneSparse, kDense };

  State Classify() const;

  /// The single nonzero coordinate if Classify() == kOneSparse.
  std::optional<Recovered> Recover() const;

  /// Adds another structure built with the same seed.
  Status Merge(const OneSparseRecovery& other);

  /// Raw (frameless) encoding for embedding in larger sketches.
  void EncodeTo(ByteSink* writer) const;
  Status DecodeFrom(ByteReader* reader);

 private:
  uint64_t Fingerprint(uint64_t item, int64_t weight) const;

  uint64_t seed_;
  uint64_t z_;              // Fingerprint base, in [2, p).
  int64_t sum_weight_ = 0;
  __int128 sum_index_weight_ = 0;
  uint64_t fingerprint_ = 0;  // sum of w * z^item mod p.
};

/// Recovers all coordinates of an (at most) s-sparse vector w.h.p.
class SparseRecovery {
 public:
  /// `sparsity` s: recovery succeeds w.h.p. if <= s coordinates nonzero.
  /// `num_rows` trades space for recovery probability.
  SparseRecovery(size_t sparsity, uint64_t seed, size_t num_rows = 3);

  SparseRecovery(const SparseRecovery&) = default;
  SparseRecovery& operator=(const SparseRecovery&) = default;

  void Update(uint64_t item, int64_t weight);

  /// All recovered (item, weight) pairs; nullopt if the vector looks denser
  /// than s (recovery failed).
  std::optional<std::vector<OneSparseRecovery::Recovered>> Recover() const;

  Status Merge(const SparseRecovery& other);

  /// Raw (frameless) encoding for embedding in larger sketches.
  void EncodeTo(ByteSink* writer) const;
  Status DecodeFrom(ByteReader* reader);

 private:
  size_t sparsity_;
  uint64_t seed_;
  size_t num_rows_;
  size_t num_buckets_;
  std::vector<OneSparseRecovery> cells_;  // num_rows_ x num_buckets_.
};

/// L0 sampler over a turnstile stream.
class L0Sampler : public WireCodec<L0Sampler> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kL0Sampler;

  struct Options {
    /// Per-level s-sparse recovery robustness.
    size_t sparsity = 8;
    /// Number of geometric subsampling levels (coordinate universe up to
    /// ~2^levels is covered well).
    int num_levels = 48;
    /// Hash rows per sparse-recovery structure (space vs success rate).
    size_t num_rows = 3;
  };

  /// `sparsity` controls per-level recovery robustness (default 8).
  explicit L0Sampler(uint64_t seed, size_t sparsity = 8);

  /// Fully configurable variant (used by the AGM graph sketch, which needs
  /// thousands of compact samplers).
  L0Sampler(uint64_t seed, const Options& options);

  L0Sampler(const L0Sampler&) = default;
  L0Sampler& operator=(const L0Sampler&) = default;
  L0Sampler(L0Sampler&&) = default;
  L0Sampler& operator=(L0Sampler&&) = default;

  /// Adds `weight` (may be negative) at coordinate `item`.
  void Update(uint64_t item, int64_t weight);

  struct Sample {
    uint64_t item;
    int64_t weight;
  };

  /// A (near-)uniform nonzero coordinate, or nullopt if the vector is zero
  /// or recovery failed at every level (probability O(2^-levels)).
  std::optional<Sample> Draw() const;

  Status Merge(const L0Sampler& other);

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<L0Sampler> GetPayload(ByteReader& payload);

  /// Decodes a PutPayload image in place — how AGM embeds its samplers
  /// without an envelope per sampler.
  Status DecodeFrom(ByteReader* reader);

  /// Fewest bytes PutPayload writes for a sampler with `options`. A decoder
  /// checks it against the remaining payload before it allocates one.
  static uint64_t MinEncodedBytes(const Options& options);

  static constexpr int kNumLevels = 48;

 private:
  /// Level of an item: number of leading zeros of its level hash, capped.
  int LevelOf(uint64_t item) const;

  uint64_t seed_;
  Options options_;
  std::vector<SparseRecovery> levels_;
};

}  // namespace gems

#endif  // GEMS_SAMPLING_L0_SAMPLER_H_
