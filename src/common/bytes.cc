#include "common/bytes.h"

namespace gems {

Status ByteReader::GetVarint(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  size_t pos = pos_;
  while (true) {
    if (pos == size_) return Status::Corruption("truncated varint");
    if (shift >= 64) return Status::Corruption("varint too long");
    uint8_t byte = data_[pos++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  pos_ = pos;
  *out = v;
  return Status::Ok();
}

Status ByteReader::GetBytes(std::vector<uint8_t>* out) {
  std::span<const uint8_t> view;
  if (Status s = GetBytesView(&view); !s.ok()) return s;
  out->assign(view.begin(), view.end());
  return Status::Ok();
}

Status ByteReader::GetBytesView(std::span<const uint8_t>* out) {
  const size_t start = pos_;
  uint64_t size;
  if (Status s = GetVarint(&size); !s.ok()) return s;
  if (remaining() < size) {
    pos_ = start;
    return Status::Corruption("truncated byte string");
  }
  *out = std::span<const uint8_t>(data_ + pos_, size);
  pos_ += size;
  return Status::Ok();
}

Status ByteReader::GetString(std::string* out) {
  std::span<const uint8_t> view;
  if (Status s = GetBytesView(&view); !s.ok()) return s;
  out->assign(reinterpret_cast<const char*>(view.data()), view.size());
  return Status::Ok();
}

Status ByteReader::GetRaw(void* out, size_t size) {
  if (remaining() < size) return Status::Corruption("truncated raw bytes");
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return Status::Ok();
}

Status ByteReader::GetRawView(size_t size, std::span<const uint8_t>* out) {
  if (remaining() < size) return Status::Corruption("truncated raw bytes");
  *out = std::span<const uint8_t>(data_ + pos_, size);
  pos_ += size;
  return Status::Ok();
}

}  // namespace gems
