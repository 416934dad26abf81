#ifndef GEMS_CARDINALITY_LOGLOG_H_
#define GEMS_CARDINALITY_LOGLOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/wire.h"

/// \file
/// LogLog cardinality estimator (Durand & Flajolet 2003): keeps only the
/// maximum rho (leading-zero rank) per register instead of a whole FM
/// bitmap, cutting space from O(log n) to O(log log n) bits per register.
/// Standard error ~1.30/sqrt(m) — superseded by HyperLogLog's harmonic
/// mean (1.04/sqrt(m)) but kept both for the historical record the paper
/// traces and as the accuracy baseline in experiment E1.

namespace gems {

/// LogLog sketch with m = 2^precision registers (geometric mean estimator).
class LogLog : public WireCodec<LogLog> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kLogLog;

  /// `precision` in [4, 16]; m = 2^precision registers of one byte each.
  explicit LogLog(int precision, uint64_t seed = 0);

  LogLog(const LogLog&) = default;
  LogLog& operator=(const LogLog&) = default;
  LogLog(LogLog&&) = default;
  LogLog& operator=(LogLog&&) = default;

  /// Adds an item (idempotent per item).
  void Update(uint64_t item);

  /// n̂ = alpha_m * m * 2^{(1/m) sum_j M_j}.
  double Estimate() const;

  /// Estimate with the 1.30/sqrt(m) normal-approximation interval.
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const;

  /// Register-wise max; requires equal precision and seed.
  Status Merge(const LogLog& other);

  int precision() const { return precision_; }
  uint32_t num_registers() const { return static_cast<uint32_t>(registers_.size()); }
  size_t MemoryBytes() const { return registers_.size(); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<LogLog> GetPayload(ByteReader& payload);

 private:
  int precision_;
  uint64_t seed_;
  std::vector<uint8_t> registers_;
};

}  // namespace gems

#endif  // GEMS_CARDINALITY_LOGLOG_H_
