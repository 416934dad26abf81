#include "cardinality/hllpp.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "core/params.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"

namespace gems {
namespace {

constexpr int kSparseWidth = 64 - HllPlusPlus::kSparsePrecision;  // 39.

// Empirical bias of the raw HLL estimator in its mid-range (raw estimate
// between ~m/8 and ~6m), regenerated with this library's own hash
// pipeline (120 trials per point, 24 points per precision) in the spirit
// of Heule et al.'s appendix tables. Rows: precisions 10..14. First array:
// mean raw estimate at the sampled cardinalities; second: its bias.
constexpr int kBiasTableMinP = 10;
constexpr int kBiasTableMaxP = 14;
constexpr int kBiasPoints = 24;

constexpr double kRawEstimateTable[5][kBiasPoints] = {
    {801.3, 941.6, 1098.4, 1269.1, 1454.0, 1650.7, 1863.0, 2084.7, 2313.4,
     2548.0, 2788.1, 3032.4, 3286.1, 3538.3, 3791.3, 4047.7, 4307.8, 4569.6,
     4827.1, 5084.6, 5347.7, 5607.8, 5860.9, 6121.5},
    {1603.2, 1885.4, 2199.3, 2541.8, 2913.0, 3307.8, 3728.3, 4167.4, 4622.6,
     5095.4, 5577.7, 6062.6, 6558.4, 7062.7, 7567.4, 8082.2, 8606.4, 9123.3,
     9638.4, 10161.2, 10668.2, 11195.8, 11722.9, 12241.3},
    {3207.0, 3771.5, 4396.4, 5077.7, 5818.9, 6612.6, 7458.1, 8338.8, 9251.5,
     10208.2, 11177.0, 12166.3, 13171.7, 14182.8, 15206.2, 16228.4, 17251.0,
     18294.6, 19345.3, 20391.1, 21441.5, 22489.3, 23536.0, 24599.8},
    {6415.1, 7540.6, 8789.9, 10157.8, 11643.9, 13234.7, 14917.7, 16671.5,
     18510.9, 20390.5, 22329.8, 24308.9, 26327.3, 28339.1, 30371.7, 32441.0,
     34500.9, 36591.8, 38671.7, 40745.0, 42854.4, 44933.4, 47025.0, 49112.7},
    {12831.5, 15085.9, 17586.2, 20322.5, 23282.6, 26460.0, 29821.2, 33343.6,
     37019.3, 40806.8, 44689.4, 48635.3, 52664.6, 56771.1, 60868.5, 64990.7,
     69139.9, 73315.2, 77508.9, 81694.8, 85898.4, 90081.6, 94281.1,
     98476.4}};

constexpr double kBiasTable[5][kBiasPoints] = {
    {673.3, 552.0, 447.3, 356.4, 279.7, 214.9, 165.6, 125.7, 92.8, 65.9,
     44.4, 27.2, 19.3, 10.0, 1.3, -3.7, -5.2, -5.0, -9.0, -13.2, -11.6,
     -13.1, -21.6, -22.5},
    {1347.2, 1106.3, 897.0, 716.5, 564.5, 436.1, 333.5, 249.5, 181.5, 131.3,
     90.4, 52.2, 24.8, 6.0, -12.4, -20.8, -19.7, -26.0, -33.9, -34.3, -50.4,
     -46.0, -42.0, -46.7},
    {2695.0, 2213.2, 1791.8, 1427.0, 1121.8, 869.3, 668.5, 503.0, 369.4,
     279.8, 202.4, 145.5, 104.6, 69.4, 46.5, 22.5, -1.2, -3.9, 0.6, 0.1,
     4.3, 5.8, 6.2, 23.8},
    {5391.1, 4424.1, 3580.8, 2856.2, 2249.9, 1748.1, 1338.6, 999.9, 746.7,
     533.8, 380.5, 267.2, 193.0, 112.3, 52.4, 29.2, -3.4, -5.0, -17.7,
     -36.9, -20.0, -33.5, -34.5, -39.3},
    {10783.5, 8852.8, 7168.2, 5719.4, 4494.5, 3486.8, 2663.0, 2000.3, 1490.9,
     1093.4, 790.9, 551.8, 396.1, 317.5, 229.9, 167.0, 131.3, 121.5, 130.1,
     131.0, 149.6, 147.6, 162.1, 172.4}};

// Linear-interpolated bias of the raw estimate `raw` at precision p;
// 0 outside the tabulated precisions/range.
double BiasEstimate(int p, double raw) {
  if (p < kBiasTableMinP || p > kBiasTableMaxP) return 0.0;
  const double* raws = kRawEstimateTable[p - kBiasTableMinP];
  const double* biases = kBiasTable[p - kBiasTableMinP];
  if (raw <= raws[0]) return biases[0];
  if (raw >= raws[kBiasPoints - 1]) return biases[kBiasPoints - 1];
  int hi = 1;
  while (raws[hi] < raw) ++hi;
  const double t = (raw - raws[hi - 1]) / (raws[hi] - raws[hi - 1]);
  return biases[hi - 1] + t * (biases[hi] - biases[hi - 1]);
}

// Cardinality below which linear counting over the dense registers is
// preferred to the bias-corrected raw estimate (Heule et al.'s empirical
// thresholds for p = 10..14).
double LinearCountingThreshold(int p) {
  switch (p) {
    case 10:
      return 900;
    case 11:
      return 1800;
    case 12:
      return 3100;
    case 13:
      return 6500;
    case 14:
      return 11500;
    default:
      return 0;  // Outside the table: fall back to plain HLL behaviour.
  }
}

}  // namespace

HllPlusPlus::HllPlusPlus(int precision, uint64_t seed)
    : precision_(precision), seed_(seed) {
  GEMS_CHECK(precision >= 4 && precision <= 18);
}

Result<HllPlusPlus> HllPlusPlus::ForRelativeError(double relative_error,
                                                  uint64_t seed) {
  if (!(relative_error > 0.0 && relative_error < 1.0)) {
    return Status::InvalidArgument(
        "HLL++ relative error must be in (0, 1)");
  }
  return HllPlusPlus(HllPrecisionFor(relative_error), seed);
}

size_t HllPlusPlus::SparseCapacity() const {
  // Convert when the sparse map's footprint approaches the dense array's.
  // Each map entry costs ~16 bytes; dense costs 2^p bytes.
  return (uint64_t{1} << precision_) / 8;
}

void HllPlusPlus::UpdateSparse(uint64_t hash) {
  const uint32_t index =
      static_cast<uint32_t>(hash >> (64 - kSparsePrecision));
  const int rho = RankOfLeftmostOne(hash, kSparseWidth);
  uint8_t& reg = sparse_[index];
  if (rho > reg) reg = static_cast<uint8_t>(rho);
  if (sparse_.size() > SparseCapacity()) ConvertToDense();
}

void HllPlusPlus::Update(uint64_t item) {
  const uint64_t hash = Hash64(item, seed_);
  if (dense_) {
    dense_->UpdateHash(hash);
  } else {
    UpdateSparse(hash);
  }
}

void HllPlusPlus::UpdateBatch(std::span<const uint64_t> items) {
  uint64_t hashes[256];
  while (!items.empty()) {
    const size_t n = std::min(items.size(), std::size(hashes));
    HashBatch(items.first(n), seed_, hashes);
    size_t i = 0;
    // Sparse mode feeds the map hash by hash (a conversion can trigger at
    // any item); the moment the sketch is dense, the rest of the chunk
    // takes the dense branch-light register pass.
    while (!dense_ && i < n) UpdateSparse(hashes[i++]);
    if (i < n) {
      dense_->UpdateHashes(std::span<const uint64_t>(hashes + i, n - i));
    }
    items = items.subspan(n);
  }
}

void HllPlusPlus::ConvertToDense() {
  if (dense_) return;
  HyperLogLog& dense = dense_.emplace(precision_, seed_);
  const int shift = kSparsePrecision - precision_;
  for (const auto& [index, rho] : sparse_) {
    const uint32_t dense_index = index >> shift;
    // The bits of the sparse index below the dense prefix.
    int dense_rho;
    if (shift == 0) {
      dense_rho = rho;
    } else {
      const uint32_t middle = index & ((uint32_t{1} << shift) - 1);
      if (middle != 0) {
        dense_rho = RankOfLeftmostOne(middle, shift);
      } else {
        dense_rho = shift + rho;
      }
    }
    if (dense_rho > dense.registers_[dense_index]) {
      dense.registers_[dense_index] = static_cast<uint8_t>(dense_rho);
    }
  }
  // Swap, not clear(): clear() keeps the bucket array (about 19 KB at
  // p = 14), and every copy of the dense sketch would copy it too.
  // `sparse_ = {}` would not free it either: it assigns an empty
  // initializer_list.
  std::unordered_map<uint32_t, uint8_t>().swap(sparse_);
}

double HllPlusPlus::Estimate() const {
  if (!dense_) {
    // Linear counting over the 2^25 sparse buckets: essentially exact at
    // the cardinalities where the sketch is still sparse.
    const double m = static_cast<double>(uint64_t{1} << kSparsePrecision);
    const double zeros = m - static_cast<double>(sparse_.size());
    if (zeros <= 0.0) return m * std::log(m);
    return m * std::log(m / zeros);
  }
  // Dense: Heule et al.'s estimator selection. For tabulated precisions,
  // bias-correct the raw estimate in its mid-range and prefer linear
  // counting below the empirical threshold; otherwise fall back to the
  // classic corrected estimator.
  const double threshold = LinearCountingThreshold(precision_);
  if (threshold == 0) return dense_->Estimate();
  const double m = static_cast<double>(dense_->num_registers());
  const HyperLogLog::RawStats stats = dense_->Raw();
  if (stats.zeros > 0) {
    const double linear = m * std::log(m / static_cast<double>(stats.zeros));
    if (linear <= threshold) return linear;
  }
  if (stats.count <= 5.0 * m) {
    return stats.count - BiasEstimate(precision_, stats.count);
  }
  return stats.count;
}

gems::Estimate HllPlusPlus::EstimateWithBounds(double confidence) const {
  const double n = Estimate();
  double std_error;
  if (!dense_) {
    const double m = static_cast<double>(uint64_t{1} << kSparsePrecision);
    const double t = n / m;
    std_error = std::sqrt(std::max(0.0, m * (std::exp(t) - t - 1.0)));
  } else {
    std_error =
        1.04 / std::sqrt(static_cast<double>(dense_->num_registers())) * n;
  }
  return EstimateFromStdError(n, std_error, confidence);
}

Status HllPlusPlus::Merge(const HllPlusPlus& other) {
  if (precision_ != other.precision_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "HLL++ merge requires equal precision and seed");
  }
  if (!dense_ && !other.dense_) {
    for (const auto& [index, rho] : other.sparse_) {
      uint8_t& reg = sparse_[index];
      if (rho > reg) reg = rho;
    }
    if (sparse_.size() > SparseCapacity()) ConvertToDense();
    return Status::Ok();
  }
  ConvertToDense();
  if (!other.dense_) {
    // Convert a copy of the other side without mutating it.
    HllPlusPlus copy = other;
    copy.ConvertToDense();
    return dense_->Merge(*copy.dense_);
  }
  return dense_->Merge(*other.dense_);
}

size_t HllPlusPlus::MemoryBytes() const {
  // The map's bucket array counts too; once dense it is one inline bucket.
  const size_t buckets = sparse_.bucket_count() * sizeof(void*);
  if (dense_) return buckets + dense_->MemoryBytes();
  return buckets + sparse_.size() * (sizeof(uint32_t) + sizeof(uint8_t) +
                                     2 * sizeof(void*));
}

void HllPlusPlus::PutPayload(ByteSink& sink) const {
  sink.PutU8(static_cast<uint8_t>(precision_));
  sink.PutU64(seed_);
  sink.PutU8(dense_ ? 0 : 1);
  if (!dense_) {
    // Canonical order: the map iterates in unspecified order, but equal
    // states must produce identical bytes (and checksums) on the wire.
    std::vector<std::pair<uint32_t, uint8_t>> entries(sparse_.begin(),
                                                      sparse_.end());
    std::sort(entries.begin(), entries.end());
    sink.PutVarint(entries.size());
    for (const auto& [index, rho] : entries) {
      sink.PutU32(index);
      sink.PutU8(rho);
    }
  } else {
    sink.PutRaw(dense_->registers().data(), dense_->registers().size());
  }
}

Result<HllPlusPlus> HllPlusPlus::GetPayload(ByteReader& r) {
  uint8_t precision, sparse_flag;
  uint64_t seed;
  if (Status sp = r.GetU8(&precision); !sp.ok()) return sp;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (Status sf = r.GetU8(&sparse_flag); !sf.ok()) return sf;
  if (precision < 4 || precision > 18) {
    return Status::Corruption("invalid HLL++ precision");
  }
  HllPlusPlus sketch(precision, seed);
  if (sparse_flag == 1) {
    uint64_t count;
    if (Status sc = r.GetVarint(&count); !sc.ok()) return sc;
    if (count > (uint64_t{1} << kSparsePrecision)) {
      return Status::Corruption("sparse entry count too large");
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t index;
      uint8_t rho;
      if (Status si = r.GetU32(&index); !si.ok()) return si;
      if (Status sr = r.GetU8(&rho); !sr.ok()) return sr;
      if (index >= (uint64_t{1} << kSparsePrecision)) {
        return Status::Corruption("sparse index out of range");
      }
      sketch.sparse_[index] = rho;
    }
  } else if (sparse_flag == 0) {
    HyperLogLog& dense = sketch.dense_.emplace(precision, seed);
    if (Status sr =
            r.GetRaw(dense.registers_.data(), dense.registers_.size());
        !sr.ok()) {
      return sr;
    }
  } else {
    return Status::Corruption("invalid sparse flag");
  }
  return sketch;
}

}  // namespace gems
