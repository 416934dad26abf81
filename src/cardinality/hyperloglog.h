#ifndef GEMS_CARDINALITY_HYPERLOGLOG_H_
#define GEMS_CARDINALITY_HYPERLOGLOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hugepage.h"
#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"
#include "core/summary.h"
#include "core/view.h"
#include "core/wire.h"

/// \file
/// HyperLogLog (Flajolet, Fusy, Gandouet & Meunier 2007): the de-facto
/// standard distinct counter the paper calls out as one of the two most
/// widely deployed sketches. Replaces LogLog's geometric mean with a
/// harmonic mean, reaching standard error 1.04/sqrt(m) with one byte per
/// register, plus the original small-range (linear counting) correction.
/// Uses 64-bit hashes throughout, so the 32-bit large-range correction of
/// the original paper is unnecessary (as observed by Heule et al. 2013).

namespace gems {

/// Dense HyperLogLog with m = 2^precision one-byte registers.
class HyperLogLog : public WireCodec<HyperLogLog> {
 public:
  /// Wire-format type tag, for View<HyperLogLog> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kHyperLogLog;

  /// `precision` in [4, 18].
  explicit HyperLogLog(int precision, uint64_t seed = 0);

  /// Advisor-driven constructor: the smallest precision whose standard
  /// error 1.04/sqrt(2^p) is <= `relative_error` (clamped to precision 18).
  /// kInvalidArgument if `relative_error` is outside (0, 1).
  static Result<HyperLogLog> ForRelativeError(double relative_error,
                                              uint64_t seed = 0);

  HyperLogLog(const HyperLogLog&) = default;
  HyperLogLog& operator=(const HyperLogLog&) = default;
  HyperLogLog(HyperLogLog&&) = default;
  HyperLogLog& operator=(HyperLogLog&&) = default;

  /// Adds an item (idempotent per item).
  void Update(uint64_t item);

  /// Adds an item by its 64-bit hash (for callers that already hashed, and
  /// for cross-sketch consistency tests).
  void UpdateHash(uint64_t hash);

  /// Batched ingest: hashes every item once in a hoisted loop, then applies
  /// branch-light register maxes. State is byte-identical to calling
  /// Update() per item.
  void UpdateBatch(std::span<const uint64_t> items);

  /// Batched ingest of pre-computed hash words (`Hash64(item, seed())` per
  /// item — e.g. a HashedBatch built with this sketch's seed). This is the
  /// hash-reuse entry point the engine's GROUP-BY path uses.
  void UpdateHashes(std::span<const uint64_t> hashes);

  /// Harmonic-mean estimate with small-range correction.
  double Estimate() const;

  /// Estimate with the 1.04/sqrt(m) normal-approximation interval.
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  /// Raw harmonic-mean estimate with no range correction (exposed for the
  /// E1 ablation of correction on/off) and the number of zero registers,
  /// from one kernel pass over the registers.
  struct RawStats {
    double count = 0.0;
    uint32_t zeros = 0;
  };
  RawStats Raw() const;

  /// Register-wise max; requires equal precision and seed.
  Status Merge(const HyperLogLog& other);

  int precision() const { return precision_; }
  uint64_t seed() const { return seed_; }
  uint32_t num_registers() const {
    return static_cast<uint32_t>(registers_.size());
  }
  size_t MemoryBytes() const { return registers_.size(); }
  const HugeVector<uint8_t>& registers() const { return registers_; }

  /// The alpha_m bias-correction constant for m registers.
  static double Alpha(uint32_t m);

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<HyperLogLog> GetPayload(ByteReader& payload);

 private:
  /// gems::MergeFromView (core/summary.h) is the one public entry point;
  /// it calls this zero-copy member.
  template <typename S>
    requires MergeableSummary<S>
  friend Status MergeFromView(S& into, const View<S>& view);
  /// Register-wise max straight out of a wrapped serialized peer — no
  /// materialization, no allocation. Resulting state is byte-identical to
  /// Merge(*view.Materialize()).
  Status MergeFromView(const View<HyperLogLog>& view);

  friend class HllPlusPlus;  // Converts sparse representations into dense.

  /// A validated wire image: the header and the 2^precision registers.
  struct WireHeader {
    uint8_t precision = 0;
    uint64_t seed = 0;
    ByteSpan registers;
  };
  /// The one header parse, shared by GetPayload and MergeFromView so both
  /// refuse the same images with the same status.
  static Result<WireHeader> ReadWireHeader(ByteReader& payload);

  int precision_;
  uint64_t seed_;
  // Hugepage-backed above the allocator threshold (precision 18 tops out at
  // 256 KiB, so today this always takes the aligned-heap fallback — the
  // allocator seam is shared with the frequency family).
  HugeVector<uint8_t> registers_;
};

}  // namespace gems

#endif  // GEMS_CARDINALITY_HYPERLOGLOG_H_
