#include "sampling/l0_sampler.h"

#include <algorithm>
#include <unordered_map>

#include "common/bits.h"
#include "common/check.h"
#include "common/random.h"
#include "hash/hash.h"
#include "hash/polynomial.h"
#include "core/wire.h"

namespace gems {
namespace {

constexpr uint64_t kPrime = KWiseHash::kPrime;  // 2^61 - 1.

/// OneSparseRecovery::EncodeTo writes five 8-byte words per cell.
constexpr size_t kCellBytes = 40;

/// Cells of a SparseRecovery: num_rows rows of max(2, 2s) buckets.
uint64_t NumCells(uint64_t sparsity, uint64_t num_rows) {
  return num_rows * std::max<uint64_t>(2, 2 * sparsity);
}

inline uint64_t MulMod(uint64_t a, uint64_t b) {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  uint64_t low = static_cast<uint64_t>(product & kPrime);
  uint64_t high = static_cast<uint64_t>(product >> 61);
  uint64_t sum = low + high;
  if (sum >= kPrime) sum -= kPrime;
  return sum;
}

inline uint64_t AddMod(uint64_t a, uint64_t b) {
  uint64_t sum = a + b;
  if (sum >= kPrime) sum -= kPrime;
  return sum;
}

uint64_t PowMod(uint64_t base, uint64_t exponent) {
  uint64_t result = 1;
  base %= kPrime;
  while (exponent > 0) {
    if (exponent & 1) result = MulMod(result, base);
    base = MulMod(base, base);
    exponent >>= 1;
  }
  return result;
}

// Weight as an element of the field (negative weights wrap).
inline uint64_t WeightMod(int64_t weight) {
  if (weight >= 0) return static_cast<uint64_t>(weight) % kPrime;
  const uint64_t magnitude = static_cast<uint64_t>(-weight) % kPrime;
  return magnitude == 0 ? 0 : kPrime - magnitude;
}

}  // namespace

OneSparseRecovery::OneSparseRecovery(uint64_t seed) : seed_(seed) {
  Rng rng(Mix64(seed ^ 0xF1E6));
  z_ = 2 + rng.NextU64() % (kPrime - 2);
}

uint64_t OneSparseRecovery::Fingerprint(uint64_t item, int64_t weight) const {
  return MulMod(WeightMod(weight), PowMod(z_, item));
}

void OneSparseRecovery::Update(uint64_t item, int64_t weight) {
  sum_weight_ += weight;
  sum_index_weight_ += static_cast<__int128>(item) * weight;
  fingerprint_ = AddMod(fingerprint_, Fingerprint(item, weight));
}

OneSparseRecovery::State OneSparseRecovery::Classify() const {
  if (sum_weight_ == 0 && sum_index_weight_ == 0 && fingerprint_ == 0) {
    return State::kZero;
  }
  if (sum_weight_ == 0) return State::kDense;
  // Candidate index = sum_iw / sum_w must be a non-negative integer.
  if (sum_index_weight_ % sum_weight_ != 0) return State::kDense;
  const __int128 candidate = sum_index_weight_ / sum_weight_;
  if (candidate < 0 ||
      candidate > static_cast<__int128>(~uint64_t{0})) {
    return State::kDense;
  }
  const uint64_t item = static_cast<uint64_t>(candidate);
  // Fingerprint check: F == w * z^item (mod p).
  if (fingerprint_ != Fingerprint(item, sum_weight_)) return State::kDense;
  return State::kOneSparse;
}

std::optional<OneSparseRecovery::Recovered> OneSparseRecovery::Recover()
    const {
  if (Classify() != State::kOneSparse) return std::nullopt;
  const uint64_t item =
      static_cast<uint64_t>(sum_index_weight_ / sum_weight_);
  return Recovered{item, sum_weight_};
}

Status OneSparseRecovery::Merge(const OneSparseRecovery& other) {
  if (seed_ != other.seed_) {
    return Status::InvalidArgument("OneSparse merge requires equal seed");
  }
  sum_weight_ += other.sum_weight_;
  sum_index_weight_ += other.sum_index_weight_;
  fingerprint_ = AddMod(fingerprint_, other.fingerprint_);
  return Status::Ok();
}

SparseRecovery::SparseRecovery(size_t sparsity, uint64_t seed,
                               size_t num_rows)
    : sparsity_(sparsity),
      seed_(seed),
      num_rows_(num_rows),
      num_buckets_(std::max<size_t>(2, 2 * sparsity)) {
  GEMS_CHECK(sparsity >= 1);
  GEMS_CHECK(num_rows >= 1);
  cells_.reserve(num_rows_ * num_buckets_);
  for (size_t row = 0; row < num_rows_; ++row) {
    for (size_t bucket = 0; bucket < num_buckets_; ++bucket) {
      cells_.emplace_back(DeriveSeed(seed, row * num_buckets_ + bucket));
    }
  }
}

void SparseRecovery::Update(uint64_t item, int64_t weight) {
  for (size_t row = 0; row < num_rows_; ++row) {
    const uint64_t bucket =
        Hash64(item, DeriveSeed(seed_ ^ 0xB0C4E7, row)) % num_buckets_;
    cells_[row * num_buckets_ + bucket].Update(item, weight);
  }
}

std::optional<std::vector<OneSparseRecovery::Recovered>>
SparseRecovery::Recover() const {
  std::unordered_map<uint64_t, int64_t> found;
  size_t dense_cells = 0;
  for (const OneSparseRecovery& cell : cells_) {
    switch (cell.Classify()) {
      case OneSparseRecovery::State::kZero:
        break;
      case OneSparseRecovery::State::kOneSparse: {
        const auto recovered = cell.Recover();
        found[recovered->item] = recovered->weight;
        break;
      }
      case OneSparseRecovery::State::kDense:
        ++dense_cells;
        break;
    }
  }
  // Verify: every recovered item must hash to cells consistent with its
  // weight; more pragmatically, reject when too many cells stayed dense
  // (the vector is likely denser than s) or nothing was recovered despite
  // dense cells.
  if (found.size() > sparsity_ || (found.empty() && dense_cells > 0)) {
    return std::nullopt;
  }
  if (dense_cells > num_rows_ * num_buckets_ / 2) return std::nullopt;
  std::vector<OneSparseRecovery::Recovered> out;
  out.reserve(found.size());
  for (const auto& [item, weight] : found) {
    out.push_back(OneSparseRecovery::Recovered{item, weight});
  }
  return out;
}

Status SparseRecovery::Merge(const SparseRecovery& other) {
  if (sparsity_ != other.sparsity_ || seed_ != other.seed_ ||
      cells_.size() != other.cells_.size()) {
    return Status::InvalidArgument(
        "SparseRecovery merge requires identical configuration");
  }
  for (size_t i = 0; i < cells_.size(); ++i) {
    Status s = cells_[i].Merge(other.cells_[i]);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

L0Sampler::L0Sampler(uint64_t seed, size_t sparsity)
    : L0Sampler(seed, Options{sparsity, kNumLevels, 3}) {}

L0Sampler::L0Sampler(uint64_t seed, const Options& options)
    : seed_(seed), options_(options) {
  GEMS_CHECK(options.num_levels >= 1 && options.num_levels <= 64);
  levels_.reserve(options.num_levels);
  for (int level = 0; level < options.num_levels; ++level) {
    levels_.emplace_back(options.sparsity, DeriveSeed(seed, 1000 + level),
                         options.num_rows);
  }
}

int L0Sampler::LevelOf(uint64_t item) const {
  const uint64_t h = Hash64(item, seed_ ^ 0x10E7E1);
  const int zeros = CountTrailingZeros64(h);
  return std::min(zeros, options_.num_levels - 1);
}

void L0Sampler::Update(uint64_t item, int64_t weight) {
  // Item participates in levels 0..LevelOf(item): level j keeps items with
  // >= j trailing-zero hash bits, i.e. a 2^-j subsample.
  const int max_level = LevelOf(item);
  for (int level = 0; level <= max_level; ++level) {
    levels_[level].Update(item, weight);
  }
}

std::optional<L0Sampler::Sample> L0Sampler::Draw() const {
  // Scan from the sparsest level down; first successful non-empty recovery
  // wins. Within a level pick the item minimizing an independent hash so
  // the choice is uniform among recovered items.
  for (int level = options_.num_levels - 1; level >= 0; --level) {
    const auto recovered = levels_[level].Recover();
    if (!recovered.has_value()) continue;
    if (recovered->empty()) continue;
    const OneSparseRecovery::Recovered* best = nullptr;
    uint64_t best_rank = ~uint64_t{0};
    for (const auto& candidate : *recovered) {
      const uint64_t rank = Hash64(candidate.item, seed_ ^ 0x9A3E);
      if (rank < best_rank) {
        best_rank = rank;
        best = &candidate;
      }
    }
    return Sample{best->item, best->weight};
  }
  return std::nullopt;
}

Status L0Sampler::Merge(const L0Sampler& other) {
  if (seed_ != other.seed_ || options_.sparsity != other.options_.sparsity ||
      options_.num_levels != other.options_.num_levels ||
      options_.num_rows != other.options_.num_rows) {
    return Status::InvalidArgument(
        "L0Sampler merge requires identical configuration");
  }
  for (size_t level = 0; level < levels_.size(); ++level) {
    Status s = levels_[level].Merge(other.levels_[level]);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace gems

namespace gems {

void OneSparseRecovery::EncodeTo(ByteSink* writer) const {
  writer->PutU64(seed_);
  writer->PutI64(sum_weight_);
  // __int128 as two little-endian 64-bit halves.
  writer->PutU64(static_cast<uint64_t>(
      static_cast<unsigned __int128>(sum_index_weight_)));
  writer->PutU64(static_cast<uint64_t>(
      static_cast<unsigned __int128>(sum_index_weight_) >> 64));
  writer->PutU64(fingerprint_);
}

Status OneSparseRecovery::DecodeFrom(ByteReader* reader) {
  uint64_t seed, low, high, fingerprint;
  int64_t sum_weight;
  if (Status s = reader->GetU64(&seed); !s.ok()) return s;
  if (Status s = reader->GetI64(&sum_weight); !s.ok()) return s;
  if (Status s = reader->GetU64(&low); !s.ok()) return s;
  if (Status s = reader->GetU64(&high); !s.ok()) return s;
  if (Status s = reader->GetU64(&fingerprint); !s.ok()) return s;
  *this = OneSparseRecovery(seed);
  sum_weight_ = sum_weight;
  sum_index_weight_ = static_cast<__int128>(
      (static_cast<unsigned __int128>(high) << 64) | low);
  if (fingerprint >= kPrime) return Status::Corruption("bad fingerprint");
  fingerprint_ = fingerprint;
  return Status::Ok();
}

void SparseRecovery::EncodeTo(ByteSink* writer) const {
  writer->PutVarint(sparsity_);
  writer->PutU64(seed_);
  writer->PutVarint(num_rows_);
  for (const OneSparseRecovery& cell : cells_) cell.EncodeTo(writer);
}

Status SparseRecovery::DecodeFrom(ByteReader* reader) {
  uint64_t sparsity, seed, num_rows;
  if (Status s = reader->GetVarint(&sparsity); !s.ok()) return s;
  if (Status s = reader->GetU64(&seed); !s.ok()) return s;
  if (Status s = reader->GetVarint(&num_rows); !s.ok()) return s;
  if (sparsity == 0 || sparsity > (1u << 20) || num_rows == 0 ||
      num_rows > 64) {
    return Status::Corruption("invalid SparseRecovery shape");
  }
  if (Status s = reader->CheckColumn(NumCells(sparsity, num_rows), kCellBytes);
      !s.ok()) {
    return s;
  }
  *this = SparseRecovery(sparsity, seed, num_rows);
  for (OneSparseRecovery& cell : cells_) {
    if (Status s = cell.DecodeFrom(reader); !s.ok()) return s;
  }
  return Status::Ok();
}

void L0Sampler::PutPayload(ByteSink& sink) const {
  sink.PutU64(seed_);
  sink.PutVarint(options_.sparsity);
  sink.PutVarint(static_cast<uint64_t>(options_.num_levels));
  sink.PutVarint(options_.num_rows);
  for (const SparseRecovery& level : levels_) level.EncodeTo(&sink);
}

Status L0Sampler::DecodeFrom(ByteReader* reader) {
  uint64_t seed, sparsity, num_levels, num_rows;
  if (Status s = reader->GetU64(&seed); !s.ok()) return s;
  if (Status s = reader->GetVarint(&sparsity); !s.ok()) return s;
  if (Status s = reader->GetVarint(&num_levels); !s.ok()) return s;
  if (Status s = reader->GetVarint(&num_rows); !s.ok()) return s;
  if (sparsity == 0 || sparsity > (1u << 20) || num_levels == 0 ||
      num_levels > 64 || num_rows == 0 || num_rows > 64) {
    return Status::Corruption("invalid L0Sampler shape");
  }
  Options options;
  options.sparsity = sparsity;
  options.num_levels = static_cast<int>(num_levels);
  options.num_rows = num_rows;
  if (Status s = reader->CheckColumn(
          num_levels, NumCells(sparsity, num_rows) * kCellBytes);
      !s.ok()) {
    return s;
  }
  *this = L0Sampler(seed, options);
  for (SparseRecovery& level : levels_) {
    if (Status s = level.DecodeFrom(reader); !s.ok()) return s;
  }
  return Status::Ok();
}

uint64_t L0Sampler::MinEncodedBytes(const Options& options) {
  return static_cast<uint64_t>(options.num_levels) *
         NumCells(options.sparsity, options.num_rows) * kCellBytes;
}

Result<L0Sampler> L0Sampler::GetPayload(ByteReader& r) {
  L0Sampler sampler(0, Options{1, 1, 1});
  if (Status sd = sampler.DecodeFrom(&r); !sd.ok()) return sd;
  return sampler;
}

}  // namespace gems
