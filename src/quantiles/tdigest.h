#ifndef GEMS_QUANTILES_TDIGEST_H_
#define GEMS_QUANTILES_TDIGEST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/wire.h"

/// \file
/// t-digest (Dunning & Ertl): the quantile summary the paper lists among
/// the new big-data-era algorithms shipped in libraries and platforms
/// (Apache DataSketches, Splunk, Salesforce...). Clusters values into
/// centroids whose maximum weight shrinks near the distribution's tails
/// (via the arcsine scale function), giving very accurate extreme
/// quantiles — the property benchmarked against KLL in experiment E4.
/// This is the "merging" variant: updates buffer and periodically merge
/// into the centroid list.

namespace gems {

/// Merging t-digest with the k1 (arcsine) scale function.
class TDigest : public WireCodec<TDigest> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kTDigest;

  /// `compression` (delta) bounds the number of centroids (~2*delta).
  explicit TDigest(double compression = 100.0);

  TDigest(const TDigest&) = default;
  TDigest& operator=(const TDigest&) = default;
  TDigest(TDigest&&) = default;
  TDigest& operator=(TDigest&&) = default;

  /// Inserts a value.
  void Update(double value);

  /// Inserts a value with integer weight >= 1.
  void Update(double value, uint64_t weight);

  /// Approximate value at quantile q; requires >= 1 update.
  double Quantile(double q) const;

  /// Approximate CDF at `value` (fraction of mass <= value).
  double Cdf(double value) const;

  /// Merges another t-digest (any compression; keeps this one's).
  Status Merge(const TDigest& other);

  uint64_t Count() const { return total_weight_ + BufferedWeight(); }
  double compression() const { return compression_; }
  size_t NumCentroids() const;
  double Min() const { return min_; }
  double Max() const { return max_; }
  size_t MemoryBytes() const {
    return (centroids_.size() + buffer_.size()) * 2 * sizeof(double);
  }

  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<TDigest> GetPayload(ByteReader& payload);

 private:
  struct Centroid {
    double mean;
    double weight;
  };

  uint64_t BufferedWeight() const;
  /// Folds the buffer into the centroid list (the "merge" pass).
  void Flush() const;

  double compression_;
  double min_;
  double max_;
  // Mutable so const queries can flush lazily.
  mutable uint64_t total_weight_ = 0;
  mutable std::vector<Centroid> centroids_;  // Sorted by mean after Flush.
  mutable std::vector<Centroid> buffer_;
};

}  // namespace gems

#endif  // GEMS_QUANTILES_TDIGEST_H_
