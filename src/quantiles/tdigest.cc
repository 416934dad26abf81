#include "quantiles/tdigest.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/wire.h"

namespace gems {
namespace {

// k1 scale function: k(q) = delta / (2*pi) * asin(2q - 1).
inline double ScaleK(double q, double compression) {
  q = std::clamp(q, 0.0, 1.0);
  return compression / (2.0 * M_PI) * std::asin(2.0 * q - 1.0);
}

}  // namespace

TDigest::TDigest(double compression)
    : compression_(compression),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  GEMS_CHECK(compression >= 20.0);
}

uint64_t TDigest::BufferedWeight() const {
  double w = 0;
  for (const Centroid& c : buffer_) w += c.weight;
  return static_cast<uint64_t>(w);
}

void TDigest::Update(double value) { Update(value, 1); }

void TDigest::Update(double value, uint64_t weight) {
  GEMS_CHECK(weight >= 1);
  GEMS_CHECK(std::isfinite(value));
  buffer_.push_back(Centroid{value, static_cast<double>(weight)});
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (buffer_.size() >= static_cast<size_t>(8 * compression_)) Flush();
}

void TDigest::Flush() const {
  if (buffer_.empty()) return;
  std::vector<Centroid> all = centroids_;
  all.insert(all.end(), buffer_.begin(), buffer_.end());
  buffer_.clear();
  std::sort(all.begin(), all.end(),
            [](const Centroid& a, const Centroid& b) {
              return a.mean < b.mean;
            });
  double total = 0;
  for (const Centroid& c : all) total += c.weight;

  std::vector<Centroid> merged;
  merged.reserve(static_cast<size_t>(2 * compression_) + 8);
  double so_far = 0;  // Weight fully emitted into `merged`.
  Centroid open = all.front();
  for (size_t i = 1; i < all.size(); ++i) {
    const Centroid& next = all[i];
    const double q0 = so_far / total;
    const double q1 = (so_far + open.weight + next.weight) / total;
    // Absorb next into the open centroid if the k-size stays within 1.
    if (ScaleK(q1, compression_) - ScaleK(q0, compression_) <= 1.0) {
      const double w = open.weight + next.weight;
      open.mean += (next.mean - open.mean) * next.weight / w;
      open.weight = w;
    } else {
      so_far += open.weight;
      merged.push_back(open);
      open = next;
    }
  }
  merged.push_back(open);
  centroids_ = std::move(merged);
  total_weight_ = static_cast<uint64_t>(total);
}

size_t TDigest::NumCentroids() const {
  Flush();
  return centroids_.size();
}

double TDigest::Quantile(double q) const {
  GEMS_CHECK(q >= 0.0 && q <= 1.0);
  Flush();
  GEMS_CHECK(!centroids_.empty());
  const double total = static_cast<double>(total_weight_);
  if (centroids_.size() == 1) return centroids_[0].mean;
  const double target = q * total;

  // Walk centroids treating each as located at its midpoint in rank space;
  // interpolate linearly between adjacent centroid means.
  double cumulative = 0;
  for (size_t i = 0; i < centroids_.size(); ++i) {
    const double mid = cumulative + centroids_[i].weight / 2.0;
    if (target <= mid || i + 1 == centroids_.size()) {
      if (i == 0 && target < mid) {
        // Interpolate from the true minimum.
        const double t = target / mid;
        return min_ + t * (centroids_[0].mean - min_);
      }
      if (i + 1 == centroids_.size() && target > mid) {
        // Interpolate toward the true maximum.
        const double remaining = total - mid;
        const double t = remaining <= 0 ? 0 : (target - mid) / remaining;
        return centroids_[i].mean + t * (max_ - centroids_[i].mean);
      }
      const double prev_mid =
          cumulative - centroids_[i - 1].weight / 2.0;
      const double t = (target - prev_mid) / (mid - prev_mid);
      return centroids_[i - 1].mean +
             t * (centroids_[i].mean - centroids_[i - 1].mean);
    }
    cumulative += centroids_[i].weight;
  }
  return centroids_.back().mean;
}

double TDigest::Cdf(double value) const {
  Flush();
  if (centroids_.empty()) return 0.0;
  if (value < min_) return 0.0;
  if (value >= max_) return 1.0;
  const double total = static_cast<double>(total_weight_);
  double cumulative = 0;
  for (size_t i = 0; i < centroids_.size(); ++i) {
    if (value < centroids_[i].mean) {
      const double prev_mean = i == 0 ? min_ : centroids_[i - 1].mean;
      const double prev_cum =
          i == 0 ? 0 : cumulative - centroids_[i - 1].weight / 2.0;
      const double this_cum = cumulative + centroids_[i].weight / 2.0;
      const double span = centroids_[i].mean - prev_mean;
      const double t = span <= 0 ? 1.0 : (value - prev_mean) / span;
      return std::clamp((prev_cum + t * (this_cum - prev_cum)) / total, 0.0,
                        1.0);
    }
    cumulative += centroids_[i].weight;
  }
  return 1.0;
}

Status TDigest::Merge(const TDigest& other) {
  other.Flush();
  for (const Centroid& c : other.centroids_) {
    buffer_.push_back(c);
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  Flush();
  return Status::Ok();
}

void TDigest::PutPayload(ByteSink& sink) const {
  Flush();
  sink.PutDouble(compression_);
  sink.PutDouble(min_);
  sink.PutDouble(max_);
  sink.PutU64(total_weight_);
  sink.PutVarint(centroids_.size());
  for (const Centroid& c : centroids_) {
    sink.PutDouble(c.mean);
    sink.PutDouble(c.weight);
  }
}

Result<TDigest> TDigest::GetPayload(ByteReader& r) {
  double compression, min_value, max_value;
  uint64_t total, num_centroids;
  if (Status sc = r.GetDouble(&compression); !sc.ok()) return sc;
  if (Status sm = r.GetDouble(&min_value); !sm.ok()) return sm;
  if (Status sx = r.GetDouble(&max_value); !sx.ok()) return sx;
  if (Status st = r.GetU64(&total); !st.ok()) return st;
  if (Status sn = r.GetVarint(&num_centroids); !sn.ok()) return sn;
  if (!(compression >= 20.0)) {
    return Status::Corruption("invalid t-digest compression");
  }
  // A digest that has seen weight holds a centroid; Quantile reads one.
  if (total != 0 && num_centroids == 0) {
    return Status::Corruption("t-digest weight without centroids");
  }
  // A centroid is two doubles.
  if (Status sn = r.CheckColumn(num_centroids, 16); !sn.ok()) return sn;
  TDigest digest(compression);
  digest.min_ = min_value;
  digest.max_ = max_value;
  digest.total_weight_ = total;
  digest.centroids_.resize(num_centroids);
  for (Centroid& c : digest.centroids_) {
    if (Status sm2 = r.GetDouble(&c.mean); !sm2.ok()) return sm2;
    if (Status sw = r.GetDouble(&c.weight); !sw.ok()) return sw;
    if (!(c.weight > 0)) return Status::Corruption("bad centroid weight");
  }
  return digest;
}

}  // namespace gems
