#include "membership/counting_bloom.h"

#include "common/check.h"
#include "core/wire.h"
#include "hash/hash.h"

namespace gems {

CountingBloomFilter::CountingBloomFilter(uint64_t num_counters,
                                         int num_hashes, uint64_t seed)
    : num_counters_(num_counters), num_hashes_(num_hashes), seed_(seed) {
  GEMS_CHECK(num_counters > 0);
  GEMS_CHECK(num_hashes >= 1 && num_hashes <= 64);
  counters_.assign(num_counters, 0);
}

void CountingBloomFilter::Probe(uint64_t key, uint64_t* h1,
                                uint64_t* h2) const {
  const Hash128 h = Hash128Bits(key, seed_);
  *h1 = h.low;
  *h2 = h.high | 1;
}

void CountingBloomFilter::Insert(uint64_t key) {
  uint64_t h1, h2;
  Probe(key, &h1, &h2);
  for (int i = 0; i < num_hashes_; ++i) {
    uint8_t& counter = counters_[h1 % num_counters_];
    if (counter < 255) ++counter;  // Saturate.
    h1 += h2;
  }
}

void CountingBloomFilter::Remove(uint64_t key) {
  uint64_t h1, h2;
  Probe(key, &h1, &h2);
  for (int i = 0; i < num_hashes_; ++i) {
    uint8_t& counter = counters_[h1 % num_counters_];
    // Saturated counters stay put (we no longer know their true value);
    // all others decrement.
    if (counter > 0 && counter < 255) --counter;
    h1 += h2;
  }
}

bool CountingBloomFilter::MayContain(uint64_t key) const {
  uint64_t h1, h2;
  Probe(key, &h1, &h2);
  for (int i = 0; i < num_hashes_; ++i) {
    if (counters_[h1 % num_counters_] == 0) return false;
    h1 += h2;
  }
  return true;
}

Status CountingBloomFilter::Merge(const CountingBloomFilter& other) {
  if (num_counters_ != other.num_counters_ ||
      num_hashes_ != other.num_hashes_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "CountingBloom merge requires identical shape and seed");
  }
  for (size_t i = 0; i < counters_.size(); ++i) {
    const int sum = counters_[i] + other.counters_[i];
    counters_[i] = static_cast<uint8_t>(sum > 255 ? 255 : sum);
  }
  return Status::Ok();
}

void CountingBloomFilter::PutPayload(ByteSink& sink) const {
  sink.PutU64(num_counters_);
  sink.PutU8(static_cast<uint8_t>(num_hashes_));
  sink.PutU64(seed_);
  sink.PutRaw(counters_.data(), counters_.size());
}

Result<CountingBloomFilter> CountingBloomFilter::GetPayload(ByteReader& r) {
  uint64_t num_counters, seed;
  uint8_t num_hashes;
  if (Status sc = r.GetU64(&num_counters); !sc.ok()) return sc;
  if (Status sh = r.GetU8(&num_hashes); !sh.ok()) return sh;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (num_counters == 0 || num_counters > (uint64_t{1} << 36) ||
      num_hashes < 1 || num_hashes > 64) {
    return Status::Corruption("invalid CountingBloom shape");
  }
  if (Status sr = r.CheckColumn(num_counters, 1); !sr.ok()) return sr;
  CountingBloomFilter filter(num_counters, num_hashes, seed);
  if (Status sr = r.GetRaw(filter.counters_.data(), filter.counters_.size());
      !sr.ok()) {
    return sr;
  }
  return filter;
}

}  // namespace gems
