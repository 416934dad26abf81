#ifndef GEMS_COMMON_BYTES_H_
#define GEMS_COMMON_BYTES_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

/// \file
/// The little-endian codec used by every sketch envelope, engine
/// checkpoint and gemsd frame. All multi-byte integers are little-endian so
/// that serialized bytes are portable across hosts.
///
/// One codec, three layers:
///  - LoadLittleEndian / StoreLittleEndian: one fixed-width word at a raw
///    pointer. On little-endian hosts each is a single memcpy; the byte loop
///    exists only in the big-endian branch.
///  - ByteSink (append into a caller-owned vector) and ByteReader (a
///    bounds-checked cursor over a span). Fixed-width puts and gets move a
///    whole word; the column calls (PutU64s/GetU64s and the i64 and double
///    twins) move a whole array with one bounds check and one memcpy.
///  - ByteWriter: a ByteSink that owns its vector.
///
/// Decoders check before they allocate: storage sized from a header field
/// is allocated only after CheckColumn (or a column get, which checks
/// first) has shown that the remaining bytes can hold it.

namespace gems {

namespace bytes_detail {

inline constexpr bool kBigEndianHost =
    std::endian::native == std::endian::big;

/// The unsigned word a fixed-width value travels as.
template <typename T>
struct WireWord {
  using type = std::make_unsigned_t<T>;
};
template <>
struct WireWord<double> {
  using type = uint64_t;
};

/// Element types the column calls carry: 8-byte words.
template <typename T>
concept ColumnElement = std::same_as<T, uint64_t> ||
                        std::same_as<T, int64_t> || std::same_as<T, double>;

}  // namespace bytes_detail

/// Reads the little-endian unsigned integer of sizeof(T) bytes at `p`.
template <std::unsigned_integral T>
inline T LoadLittleEndian(const uint8_t* p) {
  T v = 0;
  if constexpr (bytes_detail::kBigEndianHost) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
  } else {
    std::memcpy(&v, p, sizeof(T));
  }
  return v;
}

/// Writes `v` as sizeof(T) little-endian bytes at `p`.
template <std::unsigned_integral T>
inline void StoreLittleEndian(uint8_t* p, T v) {
  if constexpr (bytes_detail::kBigEndianHost) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  } else {
    std::memcpy(p, &v, sizeof(T));
  }
}

/// Append-only encoder writing into a caller-owned buffer. Holds a pointer,
/// not the storage: cheap to construct per call site, and several sinks may
/// append to the same arena in sequence (never interleaved).
///
/// Offsets returned by size() index the underlying buffer, so a caller can
/// record where an envelope started (`size_t at = sink.size()`) and later
/// slice it back out of the arena.
class ByteSink {
 public:
  explicit ByteSink(std::vector<uint8_t>* buffer) : buffer_(buffer) {}

  void PutU8(uint8_t v) { buffer_->push_back(v); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutDouble(double v) { PutFixed(std::bit_cast<uint64_t>(v)); }

  /// Column puts: the array's elements back to back, 8 little-endian bytes
  /// each, with no length prefix — the same bytes as one PutU64 / PutI64 /
  /// PutDouble per element.
  void PutU64s(std::span<const uint64_t> values) { PutColumn(values); }
  void PutI64s(std::span<const int64_t> values) { PutColumn(values); }
  void PutDoubles(std::span<const double> values) { PutColumn(values); }

  /// Unsigned LEB128 variable-length encoding (1 byte for values < 128).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buffer_->push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buffer_->push_back(static_cast<uint8_t>(v));
  }

  /// Length-prefixed byte string.
  void PutBytes(const void* data, size_t size) {
    PutVarint(size);
    PutRaw(data, size);
  }
  void PutString(const std::string& s) { PutBytes(s.data(), s.size()); }

  /// Raw bytes with no length prefix (caller knows the size).
  void PutRaw(const void* data, size_t size) {
    if (size == 0) return;
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buffer_->insert(buffer_->end(), p, p + size);
  }

  /// Overwrites previously written bytes in place — how envelope headers
  /// backfill the payload length and checksum once the payload is known,
  /// without buffering the payload separately. `offset` + width must be
  /// within what has already been written.
  void PatchU32(size_t offset, uint32_t v) {
    StoreLittleEndian(buffer_->data() + offset, v);
  }
  void PatchU64(size_t offset, uint64_t v) {
    StoreLittleEndian(buffer_->data() + offset, v);
  }

  /// Current end of the underlying buffer: the offset the next Put lands at.
  size_t size() const { return buffer_->size(); }

  /// Borrowed view of a slice written earlier (e.g. one finished envelope).
  /// Invalidated by further appends, like any vector iterator.
  std::span<const uint8_t> Slice(size_t offset, size_t length) const {
    return std::span<const uint8_t>(buffer_->data() + offset, length);
  }

 private:
  template <std::unsigned_integral T>
  void PutFixed(T v) {
    const size_t at = buffer_->size();
    buffer_->resize(at + sizeof(T));
    StoreLittleEndian(buffer_->data() + at, v);
  }

  template <bytes_detail::ColumnElement T>
  void PutColumn(std::span<const T> values) {
    if constexpr (bytes_detail::kBigEndianHost) {
      for (T v : values) PutFixed(std::bit_cast<uint64_t>(v));
    } else {
      PutRaw(values.data(), values.size_bytes());
    }
  }

  std::vector<uint8_t>* buffer_;
};

/// The owning form of ByteSink: a sink over a vector it holds itself.
/// Every encoder is ByteSink's, so a writer-built envelope matches a
/// sink-built one byte for byte.
class ByteWriter : public ByteSink {
 public:
  ByteWriter() : ByteSink(&buffer_) {}

  // The base points at buffer_, so a copy or move would alias it.
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t> TakeBytes() && { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Sequential decoder over a byte span. All getters return
/// Status::Corruption on truncated input rather than reading out of bounds,
/// and a failed getter leaves the cursor where it was.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  ByteReader(const ByteReader&) = default;
  ByteReader& operator=(const ByteReader&) = default;

  Status GetU8(uint8_t* out) { return GetFixed(out); }
  Status GetU16(uint16_t* out) { return GetFixed(out); }
  Status GetU32(uint32_t* out) { return GetFixed(out); }
  Status GetU64(uint64_t* out) { return GetFixed(out); }
  Status GetI64(int64_t* out) { return GetFixed(out); }
  Status GetDouble(double* out) { return GetFixed(out); }

  /// Refuses, without consuming anything, a header that declares `count`
  /// elements of at least `width` bytes each when fewer bytes remain. A
  /// decoder calls it before allocating storage sized from that header.
  /// The comparison divides instead of multiplying, so no count overflows.
  Status CheckColumn(uint64_t count, size_t width) const {
    if (count > remaining() / width) {
      return Status::Corruption("column of " + std::to_string(count) +
                                " elements exceeds the remaining " +
                                std::to_string(remaining()) + " bytes");
    }
    return Status::Ok();
  }

  /// Column gets: fill `out` from out.size() consecutive 8-byte
  /// little-endian elements (what the matching column put wrote).
  Status GetU64s(std::span<uint64_t> out) { return GetColumn(out); }
  Status GetI64s(std::span<int64_t> out) { return GetColumn(out); }
  Status GetDoubles(std::span<double> out) { return GetColumn(out); }
  /// Vector forms: check that `count` elements remain, then resize `out`
  /// to `count` and fill it — the allocation follows the check.
  Status GetU64s(uint64_t count, std::vector<uint64_t>* out) {
    return GetColumn(count, out);
  }
  Status GetI64s(uint64_t count, std::vector<int64_t>* out) {
    return GetColumn(count, out);
  }
  Status GetDoubles(uint64_t count, std::vector<double>* out) {
    return GetColumn(count, out);
  }

  Status GetVarint(uint64_t* out);
  /// Reads a length-prefixed byte string written by PutBytes.
  Status GetBytes(std::vector<uint8_t>* out);
  /// Zero-copy variant of GetBytes: `out` borrows the underlying buffer
  /// (valid only while it lives) instead of copying into a fresh vector.
  /// This is how nested envelopes (checkpoints, arenas) are walked without
  /// materializing each one.
  Status GetBytesView(std::span<const uint8_t>* out);
  Status GetString(std::string* out);
  /// Reads exactly `size` raw bytes.
  Status GetRaw(void* out, size_t size);
  /// Zero-copy variant of GetRaw: borrows `size` bytes of the underlying
  /// buffer without copying.
  Status GetRawView(size_t size, std::span<const uint8_t>* out);

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Status GetFixed(T* out) {
    using Word = typename bytes_detail::WireWord<T>::type;
    if (remaining() < sizeof(Word)) {
      return Status::Corruption("truncated integer");
    }
    *out = std::bit_cast<T>(LoadLittleEndian<Word>(data_ + pos_));
    pos_ += sizeof(Word);
    return Status::Ok();
  }

  template <bytes_detail::ColumnElement T>
  Status GetColumn(std::span<T> out) {
    if (Status s = CheckColumn(out.size(), sizeof(T)); !s.ok()) return s;
    const uint8_t* p = data_ + pos_;
    if constexpr (bytes_detail::kBigEndianHost) {
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = std::bit_cast<T>(LoadLittleEndian<uint64_t>(p + 8 * i));
      }
    } else if (!out.empty()) {
      std::memcpy(out.data(), p, out.size_bytes());
    }
    pos_ += out.size_bytes();
    return Status::Ok();
  }

  template <bytes_detail::ColumnElement T>
  Status GetColumn(uint64_t count, std::vector<T>* out) {
    if (Status s = CheckColumn(count, sizeof(T)); !s.ok()) return s;
    out->resize(count);
    return GetColumn(std::span<T>(*out));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace gems

#endif  // GEMS_COMMON_BYTES_H_
