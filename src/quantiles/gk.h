#ifndef GEMS_QUANTILES_GK_H_
#define GEMS_QUANTILES_GK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/wire.h"

/// \file
/// Greenwald-Khanna quantile summary (SIGMOD 2001): the classic
/// deterministic eps-approximate quantile sketch. Maintains tuples
/// (value, g, delta) where g is the gap in minimum rank to the previous
/// tuple and delta the uncertainty; the invariant g + delta <= 2*eps*n
/// guarantees every rank query is answered within eps*n. Deterministic and
/// streaming, but not (classically) mergeable — the gap that the
/// "Mergeable Summaries" line of work (PODS 2012) and ultimately KLL
/// closed, which is why this class deliberately has no Merge().

namespace gems {

/// GK summary with target rank error `epsilon`.
class GreenwaldKhanna : public WireCodec<GreenwaldKhanna> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kGreenwaldKhanna;

  explicit GreenwaldKhanna(double epsilon);

  GreenwaldKhanna(const GreenwaldKhanna&) = default;
  GreenwaldKhanna& operator=(const GreenwaldKhanna&) = default;
  GreenwaldKhanna(GreenwaldKhanna&&) = default;
  GreenwaldKhanna& operator=(GreenwaldKhanna&&) = default;

  /// Inserts a value.
  void Update(double value);

  /// Value whose rank is within eps*n of q*n. Requires at least one update.
  double Quantile(double q) const;

  /// Estimated rank of `value` (count of inserted values <= value),
  /// accurate to eps*n.
  uint64_t Rank(double value) const;

  uint64_t Count() const { return count_; }
  double epsilon() const { return epsilon_; }
  size_t NumTuples() const { return tuples_.size(); }
  size_t MemoryBytes() const { return tuples_.size() * sizeof(Tuple); }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<GreenwaldKhanna> GetPayload(ByteReader& payload);

 private:
  struct Tuple {
    double value;
    uint64_t g;      // min_rank(this) - min_rank(previous).
    uint64_t delta;  // max_rank(this) - min_rank(this).
  };

  void Compress();

  double epsilon_;
  uint64_t count_ = 0;
  uint64_t compress_period_;
  std::vector<Tuple> tuples_;  // Sorted by value.
};

}  // namespace gems

#endif  // GEMS_QUANTILES_GK_H_
