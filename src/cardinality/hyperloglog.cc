#include "cardinality/hyperloglog.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "common/prefetch.h"
#include "core/params.h"
#include "core/wire.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"
#include "simd/dispatch.h"

namespace gems {

HyperLogLog::HyperLogLog(int precision, uint64_t seed)
    : precision_(precision), seed_(seed) {
  GEMS_CHECK(precision >= 4 && precision <= 18);
  registers_.assign(uint64_t{1} << precision, 0);
}

Result<HyperLogLog> HyperLogLog::ForRelativeError(double relative_error,
                                                  uint64_t seed) {
  if (!(relative_error > 0.0 && relative_error < 1.0)) {
    return Status::InvalidArgument(
        "HyperLogLog relative error must be in (0, 1)");
  }
  return HyperLogLog(HllPrecisionFor(relative_error), seed);
}

double HyperLogLog::Alpha(uint32_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

void HyperLogLog::Update(uint64_t item) { UpdateHash(Hash64(item, seed_)); }

void HyperLogLog::UpdateHash(uint64_t hash) {
  const uint32_t index = static_cast<uint32_t>(hash >> (64 - precision_));
  const int width = 64 - precision_;
  const int rho = RankOfLeftmostOne(hash, width);
  if (rho > registers_[index]) {
    registers_[index] = static_cast<uint8_t>(rho);
  }
}

void HyperLogLog::UpdateHashes(std::span<const uint64_t> hashes) {
  // Branch-light register pass (unconditional max, hoisted shift) via the
  // dispatched kernel table.
  simd::Kernels().hll_update_hashes(registers_.data(), precision_,
                                    hashes.data(), hashes.size());
}

void HyperLogLog::UpdateBatch(std::span<const uint64_t> items) {
  const uint64_t mixed_seed = Mix64(seed_ + 0x9E3779B97F4A7C15ULL);
  const simd::SimdKernels& kernels = simd::Kernels();
  // Once the register file outgrows the L2 cache, random register touches
  // miss; split ingest into a two-phase hash-then-touch pass per chunk:
  // materialize the chunk's hashes, prefetch their registers, then run the
  // register max over lines already in flight. hll_ingest is defined as
  // hll_update_hashes over the mixed hash words, so both paths are
  // bit-identical.
  constexpr size_t kPrefetchMinRegisters = size_t{1} << 17;
  if (registers_.size() >= kPrefetchMinRegisters) {
    const int shift = 64 - precision_;
    uint64_t hashes[256];
    while (!items.empty()) {
      const size_t n = std::min(items.size(), std::size(hashes));
      kernels.mix64_batch(items.data(), n, mixed_seed, hashes);
      for (size_t i = 0; i < n; ++i) {
        PrefetchForWrite(&registers_[hashes[i] >> shift]);
      }
      kernels.hll_update_hashes(registers_.data(), precision_, hashes, n);
      items = items.subspan(n);
    }
    return;
  }
  // Fused ingest kernel: the hash words stay in vector registers between
  // the mixing pass and the register max instead of round-tripping through
  // a stack chunk. Bit-identical to per-item Update().
  kernels.hll_ingest(registers_.data(), precision_, items.data(),
                     items.size(), mixed_seed);
}

HyperLogLog::RawStats HyperLogLog::Raw() const {
  const double m = static_cast<double>(registers_.size());
  double harmonic;
  RawStats stats;
  simd::Kernels().hll_harmonic_sum(registers_.data(), registers_.size(),
                                   &harmonic, &stats.zeros);
  stats.count =
      Alpha(static_cast<uint32_t>(registers_.size())) * m * m / harmonic;
  return stats;
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  const RawStats stats = Raw();
  if (stats.count <= 2.5 * m && stats.zeros > 0) {
    // Small-range correction: linear counting over the registers.
    return m * std::log(m / static_cast<double>(stats.zeros));
  }
  return stats.count;
}

gems::Estimate HyperLogLog::EstimateWithBounds(double confidence) const {
  const double n = Estimate();
  const double std_error =
      1.04 / std::sqrt(static_cast<double>(registers_.size())) * n;
  return EstimateFromStdError(n, std_error, confidence);
}

Status HyperLogLog::Merge(const HyperLogLog& other) {
  if (precision_ != other.precision_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "HyperLogLog merge requires equal precision and seed");
  }
  simd::Kernels().u8_max(registers_.data(), other.registers_.data(),
                         registers_.size());
  return Status::Ok();
}

Result<HyperLogLog::WireHeader> HyperLogLog::ReadWireHeader(ByteReader& r) {
  WireHeader wire;
  if (Status sp = r.GetU8(&wire.precision); !sp.ok()) return sp;
  if (Status ss = r.GetU64(&wire.seed); !ss.ok()) return ss;
  if (wire.precision < 4 || wire.precision > 18) {
    return Status::Corruption("invalid HyperLogLog precision");
  }
  if (Status sr = r.GetRawView(size_t{1} << wire.precision, &wire.registers);
      !sr.ok()) {
    return sr;
  }
  return wire;
}

Status HyperLogLog::MergeFromView(const View<HyperLogLog>& view) {
  // GetPayload's header parse, then Merge's compatibility check, so the
  // two paths fail with identical statuses.
  ByteReader r = view.PayloadReader();
  Result<WireHeader> header = ReadWireHeader(r);
  if (!header.ok()) return header.status();
  const WireHeader& wire = header.value();
  if (wire.precision != precision_ || wire.seed != seed_) {
    return Status::InvalidArgument(
        "HyperLogLog merge requires equal precision and seed");
  }
  // Same kernel as Merge(): the register max runs straight over the
  // wrapped payload (32 bytes per cycle under AVX2).
  simd::Kernels().u8_max(registers_.data(), wire.registers.data(),
                         registers_.size());
  return Status::Ok();
}

void HyperLogLog::PutPayload(ByteSink& sink) const {
  sink.PutU8(static_cast<uint8_t>(precision_));
  sink.PutU64(seed_);
  sink.PutRaw(registers_.data(), registers_.size());
}

Result<HyperLogLog> HyperLogLog::GetPayload(ByteReader& r) {
  Result<WireHeader> header = ReadWireHeader(r);
  if (!header.ok()) return header.status();
  const WireHeader& wire = header.value();
  HyperLogLog hll(wire.precision, wire.seed);
  std::copy(wire.registers.begin(), wire.registers.end(),
            hll.registers_.begin());
  return hll;
}

}  // namespace gems
