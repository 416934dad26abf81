#ifndef GEMS_SIMILARITY_MINHASH_H_
#define GEMS_SIMILARITY_MINHASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/wire.h"

/// \file
/// MinHash (Broder 1997): a sketch of a *set* whose coordinates are the
/// minimum hash values under k independent hash functions. The collision
/// probability of each coordinate equals the Jaccard similarity, making
/// MinHash the canonical input to banding LSH (src/similarity/lsh.h) — the
/// technique the paper credits for multimedia similarity search at the
/// early internet companies.

namespace gems {

/// A MinHash sketch of a streaming set.
class MinHashSketch : public WireCodec<MinHashSketch> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kMinHash;

  /// `k` signature coordinates; Jaccard std error ~ 1/sqrt(k).
  MinHashSketch(uint32_t k, uint64_t seed = 0);

  MinHashSketch(const MinHashSketch&) = default;
  MinHashSketch& operator=(const MinHashSketch&) = default;
  MinHashSketch(MinHashSketch&&) = default;
  MinHashSketch& operator=(MinHashSketch&&) = default;

  /// Adds a set element (idempotent).
  void Update(uint64_t item);

  /// Batched ingest: folds the whole batch into each signature coordinate
  /// with one hoisted min-reduction per coordinate. Min commutes, so the
  /// signature is byte-identical to per-item Update().
  void UpdateBatch(std::span<const uint64_t> items);

  /// Estimated Jaccard similarity with another sketch (same k and seed).
  Result<double> Jaccard(const MinHashSketch& other) const;

  /// Union of the underlying sets = coordinate-wise min.
  Status Merge(const MinHashSketch& other);

  const std::vector<uint64_t>& signature() const { return signature_; }
  uint32_t k() const { return k_; }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<MinHashSketch> GetPayload(ByteReader& payload);

 private:
  uint32_t k_;
  uint64_t seed_;
  std::vector<uint64_t> signature_;  // Coordinate i = min over items of h_i.
};

}  // namespace gems

#endif  // GEMS_SIMILARITY_MINHASH_H_
