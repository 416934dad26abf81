#ifndef GEMS_CARDINALITY_HLLPP_H_
#define GEMS_CARDINALITY_HLLPP_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cardinality/hyperloglog.h"
#include "common/status.h"
#include "core/estimate.h"

/// \file
/// HyperLogLog++ (Heule, Nunkesser & Hall 2013) — the "HLL in practice"
/// engineering pass from Google that the paper cites as an example of
/// industrial hardening of a theoretical sketch. All three improvements
/// are implemented:
///
///  1. 64-bit hash function (removes the large-range correction entirely).
///  2. Sparse representation: below ~m/4 distinct items the sketch stores
///     (index, rho) pairs at a much higher precision p' = 25, giving
///     near-exact linear-counting accuracy at small cardinalities while
///     using less memory than the dense array; it degrades gracefully to
///     the dense form when it grows.
///  3. Empirical bias correction of the dense raw estimator in its
///     mid-range, with linear-counting preferred below a per-precision
///     threshold. The bias tables were regenerated against this library's
///     own hash pipeline (Heule et al.'s methodology) for precisions
///     10..14; other precisions fall back to the classic corrections.
///
/// The E1 bench quantifies each correction's effect (ablation E1b).

namespace gems {

/// HLL++ sketch: sparse then dense.
class HllPlusPlus {
 public:
  /// Wire-format type tag, for View<HllPlusPlus> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kHllPlusPlus;

  /// `precision` in [4, 18] controls the dense register array (2^p bytes).
  explicit HllPlusPlus(int precision, uint64_t seed = 0);

  /// Advisor-driven constructor: the smallest precision whose dense
  /// standard error 1.04/sqrt(2^p) is <= `relative_error`.
  /// kInvalidArgument if `relative_error` is outside (0, 1).
  static Result<HllPlusPlus> ForRelativeError(double relative_error,
                                              uint64_t seed = 0);

  HllPlusPlus(const HllPlusPlus&) = default;
  HllPlusPlus& operator=(const HllPlusPlus&) = default;
  HllPlusPlus(HllPlusPlus&&) = default;
  HllPlusPlus& operator=(HllPlusPlus&&) = default;

  /// Adds an item (idempotent per item).
  void Update(uint64_t item);

  /// Batched ingest: hashes every item once in a hoisted loop; while
  /// sparse, feeds the sparse map (converting to dense mid-batch if it
  /// fills), then switches to the dense branch-light register pass for the
  /// rest of the batch. State is byte-identical to per-item Update().
  void UpdateBatch(std::span<const uint64_t> items);

  /// Cardinality estimate: linear counting at sparse precision while
  /// sparse; dense HLL estimate (with small-range correction) after.
  double Estimate() const;

  /// Estimate with a normal-approximation interval (uses the
  /// representation's current standard-error model).
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  /// Merges `other` into this sketch; requires equal precision and seed.
  Status Merge(const HllPlusPlus& other);

  /// Merges a wrapped serialized peer. Sparse/dense conversion makes a
  /// true in-place register walk impractical, so this materializes one
  /// temporary from the view (skipping only the caller-side envelope copy)
  /// and merges it — byte-identical to Merge(*view.Materialize()) by
  /// construction.
  Status MergeFromView(const View<HllPlusPlus>& view);

  bool IsSparse() const { return !dense_.has_value(); }
  int precision() const { return precision_; }
  size_t MemoryBytes() const;

  /// Forces conversion to the dense representation (for tests/ablation).
  void ConvertToDense();

  std::vector<uint8_t> Serialize() const;
  /// Appends the wire envelope into a caller-owned buffer; byte-identical
  /// to Serialize().
  void SerializeTo(ByteSink& sink) const;
  static Result<HllPlusPlus> Deserialize(std::span<const uint8_t> bytes);

  /// The sparse precision p' used by the sparse representation.
  static constexpr int kSparsePrecision = 25;

 private:
  void UpdateSparse(uint64_t hash);
  /// Number of sparse entries at which we convert to dense.
  size_t SparseCapacity() const;

  int precision_;
  uint64_t seed_;
  /// Sparse mode: map sparse-index (top 25 hash bits) -> max rho of the
  /// remaining 39 bits.
  std::unordered_map<uint32_t, uint8_t> sparse_;
  /// Dense mode: engaged by ConvertToDense (or a dense image), so a sparse
  /// sketch and its copies hold no 2^p-byte register array.
  std::optional<HyperLogLog> dense_;
};

}  // namespace gems

#endif  // GEMS_CARDINALITY_HLLPP_H_
