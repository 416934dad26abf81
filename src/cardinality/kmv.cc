#include "cardinality/kmv.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"
#include "core/params.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"

namespace gems {
namespace {

// Converts a 64-bit hash to its unit-interval position.
inline double UnitOf(uint64_t hash) { return HashToUnit(hash); }

}  // namespace

ThetaResult::ThetaResult(double theta, std::vector<uint64_t> hashes)
    : theta_(theta), hashes_(std::move(hashes)) {
  GEMS_CHECK(theta_ > 0.0 && theta_ <= 1.0);
  std::sort(hashes_.begin(), hashes_.end());
}

double ThetaResult::Estimate() const {
  return static_cast<double>(hashes_.size()) / theta_;
}

gems::Estimate ThetaResult::EstimateWithBounds(double confidence) const {
  // Retained count is Binomial(n, theta): std error of n̂ = sqrt(r(1-theta))
  // / theta with r retained.
  const double r = static_cast<double>(hashes_.size());
  const double std_error = std::sqrt(r * (1.0 - theta_)) / theta_;
  return EstimateFromStdError(Estimate(), std_error, confidence);
}

KmvSketch::KmvSketch(uint32_t k, uint64_t seed) : k_(k), seed_(seed) {
  GEMS_CHECK(k >= 2);
}

Result<KmvSketch> KmvSketch::ForRelativeError(double relative_error,
                                              uint64_t seed) {
  if (!(relative_error > 0.0 && relative_error < 1.0)) {
    return Status::InvalidArgument("KMV relative error must be in (0, 1)");
  }
  return KmvSketch(KmvKFor(relative_error), seed);
}

void KmvSketch::Update(uint64_t item) {
  const uint64_t h = Hash64(item, seed_);
  if (hashes_.size() < k_) {
    hashes_.insert(h);
    return;
  }
  const uint64_t largest = *hashes_.rbegin();
  if (h < largest && !hashes_.contains(h)) {
    hashes_.insert(h);
    hashes_.erase(std::prev(hashes_.end()));
  }
}

void KmvSketch::UpdateBatch(std::span<const uint64_t> items) {
  uint64_t hashes[256];
  while (!items.empty()) {
    const size_t n = std::min(items.size(), std::size(hashes));
    HashBatch(items.first(n), seed_, hashes);
    size_t i = 0;
    // Fill phase: below k retained hashes every distinct hash is admitted.
    while (hashes_.size() < k_ && i < n) hashes_.insert(hashes[i++]);
    // Steady state: one cached-threshold compare rejects most hashes
    // without touching the ordered set.
    uint64_t largest = hashes_.empty() ? ~uint64_t{0} : *hashes_.rbegin();
    for (; i < n; ++i) {
      const uint64_t h = hashes[i];
      if (h >= largest) continue;
      if (hashes_.insert(h).second) {
        hashes_.erase(std::prev(hashes_.end()));
        largest = *hashes_.rbegin();
      }
    }
    items = items.subspan(n);
  }
}

double KmvSketch::Theta() const {
  if (hashes_.size() < k_) return 1.0;
  return UnitOf(*hashes_.rbegin());
}

double KmvSketch::Estimate() const {
  if (hashes_.size() < k_) return static_cast<double>(hashes_.size());
  // (k-1)/U_(k): unbiased for the number of distinct items.
  return static_cast<double>(k_ - 1) / UnitOf(*hashes_.rbegin());
}

gems::Estimate KmvSketch::EstimateWithBounds(double confidence) const {
  const double n = Estimate();
  if (hashes_.size() < k_) {
    return EstimateFromStdError(n, 0.0, confidence);
  }
  const double std_error = n / std::sqrt(static_cast<double>(k_) - 2.0);
  return EstimateFromStdError(n, std_error, confidence);
}

Status KmvSketch::Merge(const KmvSketch& other) {
  if (seed_ != other.seed_) {
    return Status::InvalidArgument("KMV merge requires equal seed");
  }
  for (uint64_t h : other.hashes_) {
    if (hashes_.size() < k_) {
      hashes_.insert(h);
    } else {
      const uint64_t largest = *hashes_.rbegin();
      if (h < largest && !hashes_.contains(h)) {
        hashes_.insert(h);
        hashes_.erase(std::prev(hashes_.end()));
      }
    }
  }
  return Status::Ok();
}

ThetaResult KmvSketch::ToTheta() const {
  return ThetaResult(Theta(),
                     std::vector<uint64_t>(hashes_.begin(), hashes_.end()));
}

ThetaResult KmvSketch::Union(const KmvSketch& a, const KmvSketch& b) {
  GEMS_CHECK(a.seed_ == b.seed_);
  const double theta = std::min(a.Theta(), b.Theta());
  std::set<uint64_t> merged;
  for (uint64_t h : a.hashes_) {
    if (UnitOf(h) < theta || theta >= 1.0) merged.insert(h);
  }
  for (uint64_t h : b.hashes_) {
    if (UnitOf(h) < theta || theta >= 1.0) merged.insert(h);
  }
  return ThetaResult(theta,
                     std::vector<uint64_t>(merged.begin(), merged.end()));
}

ThetaResult KmvSketch::Intersect(const KmvSketch& a, const KmvSketch& b) {
  GEMS_CHECK(a.seed_ == b.seed_);
  const double theta = std::min(a.Theta(), b.Theta());
  std::vector<uint64_t> out;
  for (uint64_t h : a.hashes_) {
    if ((UnitOf(h) < theta || theta >= 1.0) && b.hashes_.contains(h)) {
      out.push_back(h);
    }
  }
  return ThetaResult(theta, std::move(out));
}

ThetaResult KmvSketch::Difference(const KmvSketch& a, const KmvSketch& b) {
  GEMS_CHECK(a.seed_ == b.seed_);
  const double theta = std::min(a.Theta(), b.Theta());
  std::vector<uint64_t> out;
  for (uint64_t h : a.hashes_) {
    if ((UnitOf(h) < theta || theta >= 1.0) && !b.hashes_.contains(h)) {
      out.push_back(h);
    }
  }
  return ThetaResult(theta, std::move(out));
}

Result<KmvSketch::WireHeader> KmvSketch::ReadWireHeader(ByteReader& r) {
  WireHeader wire;
  uint64_t count;
  if (Status sk = r.GetU32(&wire.k); !sk.ok()) return sk;
  if (Status ss = r.GetU64(&wire.seed); !ss.ok()) return ss;
  if (Status sc = r.GetVarint(&count); !sc.ok()) return sc;
  if (wire.k < 2) return Status::Corruption("invalid KMV k");
  if (count > wire.k) {
    return Status::Corruption("KMV retained count exceeds k");
  }
  if (Status sh = r.GetRawView(static_cast<size_t>(count) * 8, &wire.hashes);
      !sh.ok()) {
    return sh;
  }
  for (uint64_t i = 1; i < count; ++i) {
    if (wire.Hash(i) <= wire.Hash(i - 1)) {
      return Status::Corruption("KMV hashes not strictly ascending");
    }
  }
  return wire;
}

Status KmvSketch::MergeFromView(const View<KmvSketch>& view) {
  // GetPayload's header parse, then Merge's seed check, then the union
  // streamed off the wrapped payload. The serialized hashes are in
  // ascending (set-iteration) order — the same order Merge consumes them —
  // so the admitted set is byte-identical to deserialize-then-merge.
  ByteReader r = view.PayloadReader();
  Result<WireHeader> header = ReadWireHeader(r);
  if (!header.ok()) return header.status();
  const WireHeader& wire = header.value();
  if (wire.seed != seed_) {
    return Status::InvalidArgument("KMV merge requires equal seed");
  }
  for (size_t i = 0; i < wire.count(); ++i) {
    const uint64_t h = wire.Hash(i);
    if (hashes_.size() < k_) {
      hashes_.insert(h);
    } else {
      const uint64_t largest = *hashes_.rbegin();
      if (h < largest && !hashes_.contains(h)) {
        hashes_.insert(h);
        hashes_.erase(std::prev(hashes_.end()));
      }
    }
  }
  return Status::Ok();
}

void KmvSketch::PutPayload(ByteSink& sink) const {
  sink.PutU32(k_);
  sink.PutU64(seed_);
  sink.PutVarint(hashes_.size());
  for (uint64_t h : hashes_) sink.PutU64(h);
}

Result<KmvSketch> KmvSketch::GetPayload(ByteReader& r) {
  Result<WireHeader> header = ReadWireHeader(r);
  if (!header.ok()) return header.status();
  const WireHeader& wire = header.value();
  KmvSketch sketch(wire.k, wire.seed);
  for (size_t i = 0; i < wire.count(); ++i) {
    sketch.hashes_.insert(sketch.hashes_.end(), wire.Hash(i));
  }
  return sketch;
}

}  // namespace gems
