#include "similarity/minhash.h"

#include <limits>

#include <algorithm>

#include "common/check.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "simd/dispatch.h"

namespace gems {

MinHashSketch::MinHashSketch(uint32_t k, uint64_t seed)
    : k_(k), seed_(seed) {
  GEMS_CHECK(k >= 1);
  signature_.assign(k, std::numeric_limits<uint64_t>::max());
}

void MinHashSketch::Update(uint64_t item) {
  for (uint32_t i = 0; i < k_; ++i) {
    const uint64_t h = Hash64(item, DeriveSeed(seed_, i));
    if (h < signature_[i]) signature_[i] = h;
  }
}

void MinHashSketch::UpdateBatch(std::span<const uint64_t> items) {
  // Coordinates outer: each signature slot is a pure min-reduction over
  // the batch under its own hash function, so one kernel call folds the
  // whole batch with the seed mix hoisted out of the item loop (per-item
  // Update re-derives it for every item). Min commutes and the hash values
  // are identical, so the signature is byte-identical to per-item ingest.
  const simd::SimdKernels& kernels = simd::Kernels();
  for (uint32_t i = 0; i < k_; ++i) {
    // Hash64(item, s) = Mix64(item + Mix64(s + C)); hoist the seed mix.
    const uint64_t mixed_seed =
        Mix64(DeriveSeed(seed_, i) + 0x9E3779B97F4A7C15ULL);
    const uint64_t batch_min =
        kernels.mix64_min(items.data(), items.size(), mixed_seed);
    signature_[i] = std::min(signature_[i], batch_min);
  }
}

Result<double> MinHashSketch::Jaccard(const MinHashSketch& other) const {
  if (k_ != other.k_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "MinHash Jaccard requires identical k and seed");
  }
  uint32_t matches = 0;
  for (uint32_t i = 0; i < k_; ++i) {
    if (signature_[i] == other.signature_[i]) ++matches;
  }
  return static_cast<double>(matches) / static_cast<double>(k_);
}

Status MinHashSketch::Merge(const MinHashSketch& other) {
  if (k_ != other.k_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "MinHash merge requires identical k and seed");
  }
  simd::Kernels().u64_min(signature_.data(), other.signature_.data(),
                          signature_.size());
  return Status::Ok();
}

void MinHashSketch::PutPayload(ByteSink& sink) const {
  sink.PutU32(k_);
  sink.PutU64(seed_);
  sink.PutU64s(signature_);
}

Result<MinHashSketch> MinHashSketch::GetPayload(ByteReader& r) {
  uint32_t k;
  uint64_t seed;
  if (Status sk = r.GetU32(&k); !sk.ok()) return sk;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (k == 0 || k > (1u << 20)) {
    return Status::Corruption("invalid MinHash k");
  }
  if (Status sc = r.CheckColumn(k, 8); !sc.ok()) return sc;
  MinHashSketch sketch(k, seed);
  if (Status sc = r.GetU64s(sketch.signature_); !sc.ok()) return sc;
  return sketch;
}

}  // namespace gems
