#include "common/bytes.hpp"

namespace umiddle {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::str16(std::string_view s) {
  u16(static_cast<std::uint16_t>(s.size()));
  str(s);
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_string(std::span<const std::uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

std::string hex(std::span<const std::uint8_t> data) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 3);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != 0) out.push_back(' ');
    out.push_back(digits[data[i] >> 4]);
    out.push_back(digits[data[i] & 0xf]);
  }
  return out;
}

}  // namespace umiddle
