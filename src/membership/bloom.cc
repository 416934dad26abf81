#include "membership/bloom.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "core/params.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"
#include "simd/dispatch.h"

namespace gems {

BloomFilter::BloomFilter(uint64_t num_bits, int num_hashes, uint64_t seed)
    : num_bits_((num_bits + 63) / 64 * 64),
      num_hashes_(num_hashes),
      seed_(seed) {
  GEMS_CHECK(num_bits > 0);
  GEMS_CHECK(num_hashes >= 1 && num_hashes <= 64);
  bits_.assign(num_bits_ / 64, 0);
}

BloomFilter BloomFilter::ForCapacity(uint64_t expected_items,
                                     double target_fpr, uint64_t seed) {
  GEMS_CHECK(expected_items > 0);
  GEMS_CHECK(target_fpr > 0.0 && target_fpr < 1.0);
  const double ln2 = std::log(2.0);
  const double m = -static_cast<double>(expected_items) *
                   std::log(target_fpr) / (ln2 * ln2);
  const int k = std::max(1, static_cast<int>(std::round(
                                m / static_cast<double>(expected_items) *
                                ln2)));
  return BloomFilter(static_cast<uint64_t>(std::ceil(m)), k, seed);
}

Result<BloomFilter> BloomFilter::ForFpr(uint64_t expected_items,
                                        double target_fpr, uint64_t seed) {
  if (expected_items == 0) {
    return Status::InvalidArgument("Bloom expected_items must be > 0");
  }
  if (!(target_fpr > 0.0 && target_fpr < 1.0)) {
    return Status::InvalidArgument("Bloom target FPR must be in (0, 1)");
  }
  const uint64_t bits = BloomBitsFor(expected_items, target_fpr);
  const int k = OptimalNumHashes(static_cast<double>(bits) /
                                 static_cast<double>(expected_items));
  return BloomFilter(bits, std::min(k, 64), seed);
}

int BloomFilter::OptimalNumHashes(double bits_per_item) {
  return std::max(1, static_cast<int>(std::round(bits_per_item *
                                                 std::log(2.0))));
}

void BloomFilter::InsertHash(uint64_t h1, uint64_t h2) {
  // Kirsch-Mitzenmacher: probe i at h1 + i*h2.
  uint64_t h = h1;
  for (int i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = h % num_bits_;
    bits_[bit / 64] |= uint64_t{1} << (bit % 64);
    h += h2;
  }
}

bool BloomFilter::MayContainHash(uint64_t h1, uint64_t h2) const {
  uint64_t h = h1;
  for (int i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = h % num_bits_;
    if ((bits_[bit / 64] & (uint64_t{1} << (bit % 64))) == 0) return false;
    h += h2;
  }
  return true;
}

void BloomFilter::Insert(uint64_t key) {
  const Hash128 h = Hash128Bits(key, seed_);
  InsertHash(h.low, h.high | 1);
}

void BloomFilter::Insert(std::string_view key) {
  const Hash128 h = Hash128Bits(key.data(), key.size(), seed_);
  InsertHash(h.low, h.high | 1);
}

void BloomFilter::InsertBatch(std::span<const uint64_t> keys) {
  // Hash-once pipeline over small chunks: the Murmur batch kernel keeps
  // 4-8 keys in flight, then the probe loop streams the bit writes with
  // the per-probe modulo strength-reduced instead of one hardware divide
  // each. Bit indices are exactly those of Insert(), so the resulting
  // filter is byte-identical.
  const InvariantMod mod(num_bits_);
  uint64_t h1[256];
  uint64_t h2[256];
  while (!keys.empty()) {
    const size_t n = std::min(keys.size(), std::size(h1));
    simd::Kernels().murmur3_batch_u64(keys.data(), n, seed_, h1, h2);
    for (size_t i = 0; i < n; ++i) {
      uint64_t h = h1[i];
      const uint64_t step = h2[i] | 1;
      for (int j = 0; j < num_hashes_; ++j) {
        const uint64_t bit = mod(h);
        bits_[bit >> 6] |= uint64_t{1} << (bit & 63);
        h += step;
      }
    }
    keys = keys.subspan(n);
  }
}

void BloomFilter::MayContainBatch(std::span<const uint64_t> keys,
                                  uint8_t* out) const {
  // Batched membership: hash kernel, then the multi-probe query kernel
  // (gathered word loads under AVX2). out[i] == MayContain(keys[i]).
  const simd::SimdKernels& kernels = simd::Kernels();
  uint64_t h1[256];
  uint64_t h2[256];
  size_t offset = 0;
  while (offset < keys.size()) {
    const size_t n = std::min(keys.size() - offset, std::size(h1));
    kernels.murmur3_batch_u64(keys.data() + offset, n, seed_, h1, h2);
    for (size_t i = 0; i < n; ++i) h2[i] |= 1;
    kernels.bloom_query(bits_.data(), num_bits_, num_hashes_, h1, h2, n,
                        out + offset);
    offset += n;
  }
}

bool BloomFilter::MayContain(uint64_t key) const {
  const Hash128 h = Hash128Bits(key, seed_);
  return MayContainHash(h.low, h.high | 1);
}

bool BloomFilter::MayContain(std::string_view key) const {
  const Hash128 h = Hash128Bits(key.data(), key.size(), seed_);
  return MayContainHash(h.low, h.high | 1);
}

uint64_t BloomFilter::NumBitsSet() const {
  uint64_t set = 0;
  for (uint64_t word : bits_) set += PopCount64(word);
  return set;
}

double BloomFilter::EstimatedFpr() const {
  const double fill =
      static_cast<double>(NumBitsSet()) / static_cast<double>(num_bits_);
  return std::pow(fill, num_hashes_);
}

double BloomFilter::EstimateCardinality() const {
  const double m = static_cast<double>(num_bits_);
  const double set = static_cast<double>(NumBitsSet());
  if (set >= m) return m * std::log(m) / num_hashes_;  // Saturated.
  return -(m / num_hashes_) * std::log(1.0 - set / m);
}

double BloomFilter::TheoreticalFpr(uint64_t num_bits, int num_hashes,
                                   uint64_t n) {
  const double exponent = -static_cast<double>(num_hashes) *
                          static_cast<double>(n) /
                          static_cast<double>(num_bits);
  return std::pow(1.0 - std::exp(exponent), num_hashes);
}

Status BloomFilter::Merge(const BloomFilter& other) {
  if (num_bits_ != other.num_bits_ || num_hashes_ != other.num_hashes_ ||
      seed_ != other.seed_) {
    return Status::InvalidArgument(
        "Bloom merge requires identical shape and seed");
  }
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
  return Status::Ok();
}

Status BloomFilter::MergeFromView(const View<BloomFilter>& view) {
  // Deserialize's validation order, then Merge's compatibility check, then
  // the word OR streamed straight off the wrapped payload.
  ByteReader r = view.PayloadReader();
  uint64_t num_bits, seed;
  uint8_t num_hashes;
  if (Status sb = r.GetU64(&num_bits); !sb.ok()) return sb;
  if (Status sh = r.GetU8(&num_hashes); !sh.ok()) return sh;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (num_bits == 0 || num_bits % 64 != 0 || num_bits > (uint64_t{1} << 40) ||
      num_hashes < 1) {
    return Status::Corruption("invalid Bloom filter shape");
  }
  // Claim the whole word array up front: a payload shorter than the
  // declared shape surfaces as the read error Deserialize would have
  // produced, and no partial merge ever touches bits_.
  std::span<const uint8_t> raw;
  if (Status sw = r.GetRawView((num_bits / 64) * 8, &raw); !sw.ok()) return sw;
  if (num_bits != num_bits_ || num_hashes != num_hashes_ || seed != seed_) {
    return Status::InvalidArgument(
        "Bloom merge requires identical shape and seed");
  }
  ByteReader words(raw);
  for (uint64_t& ours : bits_) {
    uint64_t word;
    if (Status sw = words.GetU64(&word); !sw.ok()) return sw;
    ours |= word;
  }
  return Status::Ok();
}

std::vector<uint8_t> BloomFilter::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(kWireHeaderSize + 17 + bits_.size() * 8);
  ByteSink sink(&out);
  SerializeTo(sink);
  return out;
}

void BloomFilter::SerializeTo(ByteSink& sink) const {
  EnvelopeBuilder env(sink, kTypeId);
  sink.PutU64(num_bits_);
  sink.PutU8(static_cast<uint8_t>(num_hashes_));
  sink.PutU64(seed_);
  for (uint64_t word : bits_) sink.PutU64(word);
}

Result<BloomFilter> BloomFilter::Deserialize(
    std::span<const uint8_t> bytes) {
  Result<ByteReader> payload = OpenEnvelope(SketchTypeId::kBloomFilter, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r = std::move(payload).value();
  uint64_t num_bits, seed;
  uint8_t num_hashes;
  if (Status sb = r.GetU64(&num_bits); !sb.ok()) return sb;
  if (Status sh = r.GetU8(&num_hashes); !sh.ok()) return sh;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (num_bits == 0 || num_bits % 64 != 0 || num_bits > (uint64_t{1} << 40) ||
      num_hashes < 1) {
    return Status::Corruption("invalid Bloom filter shape");
  }
  BloomFilter filter(num_bits, num_hashes, seed);
  for (uint64_t& word : filter.bits_) {
    if (Status sw = r.GetU64(&word); !sw.ok()) return sw;
  }
  return filter;
}

}  // namespace gems
