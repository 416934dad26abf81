#include "membership/blocked_bloom.h"

#include <algorithm>

#include "common/check.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "simd/dispatch.h"

namespace gems {

BlockedBloomFilter::BlockedBloomFilter(uint64_t num_bits, int num_hashes,
                                       uint64_t seed)
    : num_blocks_((num_bits + 511) / 512), num_hashes_(num_hashes),
      seed_(seed) {
  GEMS_CHECK(num_bits > 0);
  GEMS_CHECK(num_hashes >= 1 && num_hashes <= 16);
  words_.assign(num_blocks_ * kWordsPerBlock, 0);
}

void BlockedBloomFilter::InsertProbes(uint64_t block, uint64_t probe_bits) {
  uint64_t probe = probe_bits;
  for (int i = 0; i < num_hashes_; ++i) {
    const uint32_t bit = probe & 511;  // 9 bits per probe.
    words_[block * kWordsPerBlock + bit / 64] |= uint64_t{1} << (bit % 64);
    probe >>= 9;
    if (i == 5) probe = Mix64(probe_bits);  // Refill bits (64/9 = 7 max).
  }
}

void BlockedBloomFilter::Insert(uint64_t key) {
  const Hash128 h = Hash128Bits(key, seed_);
  InsertProbes(h.low % num_blocks_, h.high);
}

void BlockedBloomFilter::InsertBatch(std::span<const uint64_t> keys) {
  // Fully fused in the dispatched kernel: hash, block-select, prefetch,
  // and probe writes all live in src/simd/ (this class carries no
  // intrinsics or feature tests of its own). Bit ORs commute, so state is
  // byte-identical to per-key Insert().
  simd::Kernels().blocked_bloom_insert(words_.data(), num_blocks_,
                                       num_hashes_, seed_, keys.data(),
                                       keys.size());
}

bool BlockedBloomFilter::MayContain(uint64_t key) const {
  const Hash128 h = Hash128Bits(key, seed_);
  const uint64_t block = h.low % num_blocks_;
  uint64_t probe = h.high;
  for (int i = 0; i < num_hashes_; ++i) {
    const uint32_t bit = probe & 511;
    if ((words_[block * kWordsPerBlock + bit / 64] &
         (uint64_t{1} << (bit % 64))) == 0) {
      return false;
    }
    probe >>= 9;
    if (i == 5) probe = Mix64(h.high);
  }
  return true;
}

void BlockedBloomFilter::MayContainBatch(std::span<const uint64_t> keys,
                                         uint8_t* out) const {
  // Same fused kernel pipeline as InsertBatch, reading instead of writing.
  // out[i] == MayContain(keys[i]).
  simd::Kernels().blocked_bloom_query(words_.data(), num_blocks_, num_hashes_,
                                      seed_, keys.data(), keys.size(), out);
}

Status BlockedBloomFilter::Merge(const BlockedBloomFilter& other) {
  if (num_blocks_ != other.num_blocks_ || num_hashes_ != other.num_hashes_ ||
      seed_ != other.seed_) {
    return Status::InvalidArgument(
        "BlockedBloom merge requires identical shape and seed");
  }
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return Status::Ok();
}

void BlockedBloomFilter::PutPayload(ByteSink& sink) const {
  sink.PutU64(num_blocks_);
  sink.PutU8(static_cast<uint8_t>(num_hashes_));
  sink.PutU64(seed_);
  sink.PutU64s(words_);
}

Result<BlockedBloomFilter> BlockedBloomFilter::GetPayload(ByteReader& r) {
  uint64_t num_blocks, seed;
  uint8_t num_hashes;
  if (Status sb = r.GetU64(&num_blocks); !sb.ok()) return sb;
  if (Status sh = r.GetU8(&num_hashes); !sh.ok()) return sh;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (num_blocks == 0 || num_blocks > (uint64_t{1} << 32) || num_hashes < 1 ||
      num_hashes > 16) {
    return Status::Corruption("invalid BlockedBloom shape");
  }
  if (Status sw = r.CheckColumn(num_blocks * kWordsPerBlock, 8); !sw.ok()) {
    return sw;
  }
  BlockedBloomFilter filter(num_blocks * 512, num_hashes, seed);
  if (Status sw = r.GetU64s(filter.words_); !sw.ok()) return sw;
  return filter;
}

}  // namespace gems
