#include "core/wire.h"

#include "hash/xxhash.h"

namespace gems {
namespace {

/// Checksum of an envelope: hash the payload with a seed derived from the
/// 12 header bytes that precede the checksum field, so header and payload
/// corruption are both detected with a single pass and no copy.
uint64_t EnvelopeChecksum(const uint8_t* header12, const uint8_t* payload,
                          size_t payload_size) {
  const uint64_t header_seed = XxHash64(header12, 12, kWireChecksumSeed);
  return XxHash64(payload, payload_size, header_seed);
}

}  // namespace

bool IsKnownSketchTypeId(uint16_t raw) {
  return raw >= static_cast<uint16_t>(SketchTypeId::kMorrisCounter) &&
         raw <= static_cast<uint16_t>(SketchTypeId::kExponentialHistogram);
}

const char* SketchTypeName(SketchTypeId id) {
  switch (id) {
    case SketchTypeId::kMorrisCounter: return "morris";
    case SketchTypeId::kLinearCounting: return "linear_counting";
    case SketchTypeId::kFlajoletMartin: return "flajolet_martin";
    case SketchTypeId::kLogLog: return "loglog";
    case SketchTypeId::kHyperLogLog: return "hyperloglog";
    case SketchTypeId::kHllPlusPlus: return "hllpp";
    case SketchTypeId::kKmv: return "kmv";
    case SketchTypeId::kBloomFilter: return "bloom";
    case SketchTypeId::kCountingBloomFilter: return "counting_bloom";
    case SketchTypeId::kBlockedBloomFilter: return "blocked_bloom";
    case SketchTypeId::kCountMin: return "count_min";
    case SketchTypeId::kCountSketch: return "count_sketch";
    case SketchTypeId::kMisraGries: return "misra_gries";
    case SketchTypeId::kSpaceSaving: return "space_saving";
    case SketchTypeId::kMajority: return "majority";
    case SketchTypeId::kGreenwaldKhanna: return "gk";
    case SketchTypeId::kKll: return "kll";
    case SketchTypeId::kQDigest: return "qdigest";
    case SketchTypeId::kTDigest: return "tdigest";
    case SketchTypeId::kReservoir: return "reservoir";
    case SketchTypeId::kWeightedReservoir: return "weighted_reservoir";
    case SketchTypeId::kL0Sampler: return "l0_sampler";
    case SketchTypeId::kAmsSketch: return "ams";
    case SketchTypeId::kMinHash: return "minhash";
    case SketchTypeId::kSimHash: return "simhash";
    case SketchTypeId::kAgmSketch: return "agm";
    case SketchTypeId::kDyadicCountMin: return "dyadic_count_min";
    case SketchTypeId::kSlidingHyperLogLog: return "sliding_hyperloglog";
    case SketchTypeId::kSlidingCountMin: return "sliding_countmin";
    case SketchTypeId::kDecayedCountMin: return "decayed_countmin";
    case SketchTypeId::kExponentialHistogram: return "exponential_histogram";
  }
  return "unknown";
}

std::vector<uint8_t> WrapEnvelope(SketchTypeId type,
                                  std::vector<uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kWireHeaderSize + payload.size());
  ByteSink sink(&out);
  EnvelopeBuilder env(sink, type);
  sink.PutRaw(payload.data(), payload.size());
  env.Finish();
  return out;
}

EnvelopeBuilder::EnvelopeBuilder(ByteSink& sink, SketchTypeId type)
    : sink_(sink), start_(sink.size()) {
  sink_.PutU32(kWireMagic);
  sink_.PutU16(static_cast<uint16_t>(type));
  sink_.PutU8(kWireVersion);
  sink_.PutU8(0);  // Flags: reserved, zero in version 1.
  sink_.PutU32(0);  // Payload length, backfilled by Finish().
  sink_.PutU64(0);  // Checksum, backfilled by Finish().
}

void EnvelopeBuilder::Finish() {
  if (finished_) return;
  finished_ = true;
  const size_t payload_size = sink_.size() - start_ - kWireHeaderSize;
  sink_.PatchU32(start_ + 8, static_cast<uint32_t>(payload_size));
  const ByteSpan header12 = sink_.Slice(start_, 12);
  const ByteSpan payload = sink_.Slice(start_ + kWireHeaderSize, payload_size);
  sink_.PatchU64(start_ + 12, EnvelopeChecksum(header12.data(), payload.data(),
                                               payload.size()));
}

Result<EnvelopeView> ParseEnvelope(const uint8_t* data, size_t size,
                                   EnvelopeVerify verify) {
  if (data == nullptr || size < kWireHeaderSize) {
    return Status::Corruption("sketch envelope truncated: header incomplete");
  }
  if (LoadLittleEndian<uint32_t>(data) != kWireMagic) {
    return Status::Corruption("sketch envelope: bad magic");
  }
  const uint16_t raw_type = LoadLittleEndian<uint16_t>(data + 4);
  if (!IsKnownSketchTypeId(raw_type)) {
    return Status::Corruption("sketch envelope: unknown sketch type id " +
                              std::to_string(raw_type));
  }
  EnvelopeView view;
  view.type = static_cast<SketchTypeId>(raw_type);
  view.version = data[6];
  if (view.version == 0 || view.version > kWireVersion) {
    return Status::Corruption(
        "sketch envelope: unsupported format version " +
        std::to_string(view.version) + " (this build reads <= " +
        std::to_string(kWireVersion) + ")");
  }
  view.flags = data[7];
  if (view.flags != 0) {
    return Status::Corruption("sketch envelope: unknown flag bits set");
  }
  view.payload_size = LoadLittleEndian<uint32_t>(data + 8);
  if (size - kWireHeaderSize < view.payload_size) {
    return Status::Corruption("sketch envelope truncated: payload incomplete");
  }
  if (size - kWireHeaderSize > view.payload_size) {
    return Status::Corruption("sketch envelope: trailing bytes after payload");
  }
  view.payload = data + kWireHeaderSize;
  if (verify == EnvelopeVerify::kFull) {
    const uint64_t expected = LoadLittleEndian<uint64_t>(data + 12);
    const uint64_t actual =
        EnvelopeChecksum(data, view.payload, view.payload_size);
    if (expected != actual) {
      return Status::Corruption("sketch envelope: checksum mismatch");
    }
  }
  return view;
}

Result<EnvelopeView> ParseEnvelope(ByteSpan bytes, EnvelopeVerify verify) {
  return ParseEnvelope(bytes.data(), bytes.size(), verify);
}

Result<ByteReader> OpenEnvelope(SketchTypeId expected, ByteSpan bytes) {
  Result<EnvelopeView> view = ParseEnvelope(bytes);
  if (!view.ok()) return view.status();
  if (view.value().type != expected) {
    return Status::Corruption(
        std::string("sketch envelope: type confusion: expected ") +
        SketchTypeName(expected) + ", found " +
        SketchTypeName(view.value().type));
  }
  return ByteReader(view.value().payload, view.value().payload_size);
}

Result<SketchTypeId> PeekSketchType(ByteSpan bytes) {
  Result<EnvelopeView> view = ParseEnvelope(bytes);
  if (!view.ok()) return view.status();
  return view.value().type;
}

}  // namespace gems
