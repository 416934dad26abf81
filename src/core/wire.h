#ifndef GEMS_CORE_WIRE_H_
#define GEMS_CORE_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/io.h"

/// \file
/// The unified versioned wire format shared by every serializable sketch.
///
/// What made DataSketches infrastructure rather than a paper artifact is
/// that every sketch shares one portable serialized form that can be
/// stored, shipped, and merged by code that does not know the concrete
/// type. Every serialized sketch in this library is one *envelope*:
///
///   offset  size  field
///   0       4     magic "GEMS" (0x534D4547 little-endian)
///   4       2     sketch type id (SketchTypeId, little-endian u16)
///   6       1     format version (kWireVersion)
///   7       1     flags (reserved; must be zero in version 1)
///   8       4     payload length in bytes (little-endian u32)
///   12      8     XXH64 checksum (see below, little-endian u64)
///   20      ...   payload (sketch-specific encoding)
///
/// The checksum is XXH64(payload, seed) where the seed is itself
/// XXH64(header bytes [0, 12), kWireChecksumSeed) — so corruption of any
/// header field or any payload byte is detected without buffering a copy
/// of the payload. Readers reject bad magic, unknown type ids, future
/// versions, nonzero flags, length mismatches (truncation or trailing
/// bytes), and checksum mismatches, all as Status::kCorruption — never a
/// crash or silently-garbage sketch.

namespace gems {

/// Type tags for serialized sketches. Values are part of the wire format;
/// append only, never renumber or reuse.
enum class SketchTypeId : uint16_t {
  kMorrisCounter = 1,
  kLinearCounting = 2,
  kFlajoletMartin = 3,
  kLogLog = 4,
  kHyperLogLog = 5,
  kHllPlusPlus = 6,
  kKmv = 7,
  kBloomFilter = 8,
  kCountingBloomFilter = 9,
  kBlockedBloomFilter = 10,
  kCountMin = 11,
  kCountSketch = 12,
  kMisraGries = 13,
  kSpaceSaving = 14,
  kMajority = 15,
  kGreenwaldKhanna = 16,
  kKll = 17,
  kQDigest = 18,
  kTDigest = 19,
  kReservoir = 20,
  kWeightedReservoir = 21,
  kL0Sampler = 22,
  kAmsSketch = 23,
  kMinHash = 24,
  kSimHash = 25,
  kAgmSketch = 26,
  kDyadicCountMin = 27,
  kSlidingHyperLogLog = 28,
  kSlidingCountMin = 29,
  kDecayedCountMin = 30,
  kExponentialHistogram = 31,
};

/// Envelope constants. kWireVersion is the version this build writes;
/// readers accept only versions they know how to parse.
inline constexpr uint32_t kWireMagic = 0x534D4547;  // "GEMS" little-endian.
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kWireHeaderSize = 20;
inline constexpr uint64_t kWireChecksumSeed = 0x736B65746368ULL;  // "sketch"

/// True if `raw` is a type id this build knows about (registered or not).
bool IsKnownSketchTypeId(uint16_t raw);

/// Stable lowercase name for a type id ("hyperloglog", "kll", ...);
/// "unknown" for ids this build does not know.
const char* SketchTypeName(SketchTypeId id);

/// Wraps a hand-built payload in the standard envelope — for tests and
/// fuzz drivers that forge images; sketch families get their envelope from
/// WireCodec below. Byte-identical to EnvelopeBuilder over the same payload.
std::vector<uint8_t> WrapEnvelope(SketchTypeId type,
                                  std::vector<uint8_t> payload);

/// Writes an envelope straight into a caller-owned buffer with no
/// intermediate payload copy: construct (writes the 20-byte header with
/// length and checksum still blank), append the payload through sink(),
/// then Finish() backfills both. The result is byte-identical to
/// WrapEnvelope over the same payload.
///
///   ByteSink sink(&arena);
///   EnvelopeBuilder env(sink, SketchTypeId::kHyperLogLog);
///   sink.PutU8(precision); ...           // payload
///   env.Finish();
///
/// Exactly one envelope may be under construction in a sink at a time.
class EnvelopeBuilder {
 public:
  EnvelopeBuilder(ByteSink& sink, SketchTypeId type);
  EnvelopeBuilder(const EnvelopeBuilder&) = delete;
  EnvelopeBuilder& operator=(const EnvelopeBuilder&) = delete;
  ~EnvelopeBuilder() { Finish(); }

  ByteSink& sink() { return sink_; }

  /// Backfills payload length and checksum. Idempotent; called by the
  /// destructor if not called explicitly.
  void Finish();

  /// Offset of the envelope's first byte in the sink's buffer, so callers
  /// can slice the finished envelope back out of an arena.
  size_t start_offset() const { return start_; }

 private:
  ByteSink& sink_;
  size_t start_;
  bool finished_ = false;
};

/// Parsed-and-validated view into an envelope. `payload` points into the
/// buffer handed to ParseEnvelope and is valid only while it lives.
struct EnvelopeView {
  SketchTypeId type;
  uint8_t version = 0;
  uint8_t flags = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_size = 0;
};

/// How much of an envelope ParseEnvelope checks.
///
/// kFull is the default everywhere: every header field plus the XXH64
/// payload checksum. kStructural performs every check EXCEPT the checksum
/// comparison — magic, type id, version, flags, and the length bounds that
/// make payload access memory-safe are all still enforced. It exists for
/// same-process fan-in (combiner trees, shard merges) where the bytes were
/// produced moments ago by this process and never crossed a failure
/// domain: there the checksum pass is pure overhead, and on flat sketches
/// it dominates the whole wrap-and-merge cost. Bytes that arrived from
/// disk or the network should always get kFull.
enum class EnvelopeVerify : uint8_t {
  kFull,
  kStructural,
};

/// Validates magic, type id, version, flags, length, and (under kFull)
/// checksum. The envelope must occupy exactly [data, data + size); shorter
/// input is truncation and longer input is trailing garbage, both
/// kCorruption. Accepts any borrowed byte source (vector, mmap,
/// ring-buffer slice) via ByteSpan without copying.
Result<EnvelopeView> ParseEnvelope(const uint8_t* data, size_t size,
                                   EnvelopeVerify verify =
                                       EnvelopeVerify::kFull);
Result<EnvelopeView> ParseEnvelope(ByteSpan bytes,
                                   EnvelopeVerify verify =
                                       EnvelopeVerify::kFull);

/// Validates the envelope, additionally requires its type tag to equal
/// `expected` (kCorruption otherwise — the cross-type confusion case), and
/// returns a reader positioned at the start of the payload. The reader
/// borrows `bytes`, which must outlive it.
Result<ByteReader> OpenEnvelope(SketchTypeId expected, ByteSpan bytes);

/// Reads just the type tag of a serialized sketch after full envelope
/// validation — how type-agnostic consumers (registry, CLI `merge`)
/// dispatch without being told the type.
Result<SketchTypeId> PeekSketchType(ByteSpan bytes);

/// The envelope half of every sketch family's codec, supplied once. A
/// family derives from WireCodec<Family>, declares
/// `static constexpr SketchTypeId kTypeId`, and implements only its
/// payload:
///
///   void PutPayload(ByteSink& sink) const;
///   static Result<Family> GetPayload(ByteReader& payload);
///
/// GetPayload receives a reader over exactly the payload of an envelope
/// that already passed ParseEnvelope (checksum included) and carried
/// kTypeId. It validates every declared size against the bytes left before
/// it allocates anything sized by them. The base is empty, so deriving
/// from it leaves sizeof(Family) unchanged.
template <typename S>
class WireCodec {
 public:
  /// The standard wire envelope around PutPayload's bytes.
  std::vector<uint8_t> Serialize() const {
    std::vector<uint8_t> out;
    ByteSink sink(&out);
    SerializeTo(sink);
    return out;
  }

  /// Appends the envelope into a caller-owned buffer (an arena, a
  /// checkpoint body); byte-identical to Serialize().
  void SerializeTo(ByteSink& sink) const {
    EnvelopeBuilder env(sink, S::kTypeId);
    static_cast<const S&>(*this).PutPayload(sink);
  }

  /// Validates the envelope (kCorruption for any header, length, checksum
  /// or type-tag fault) and decodes its payload.
  static Result<S> Deserialize(ByteSpan bytes) {
    Result<ByteReader> payload = OpenEnvelope(S::kTypeId, bytes);
    if (!payload.ok()) return payload.status();
    return S::GetPayload(payload.value());
  }
};

}  // namespace gems

#endif  // GEMS_CORE_WIRE_H_
