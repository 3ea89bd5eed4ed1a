#include "common/bytes.hpp"

#include <array>

namespace umiddle {

namespace {

/// Append the low N bytes of `v`, most significant first, in one insert.
template <std::size_t N>
void append_be(Bytes& buf, std::uint64_t v) {
  std::array<std::uint8_t, N> be;
  for (std::size_t i = 0; i < N; ++i) be[i] = static_cast<std::uint8_t>(v >> (8 * (N - 1 - i)));
  buf.insert(buf.end(), be.begin(), be.end());
}

}  // namespace

void ByteWriter::u16(std::uint16_t v) { append_be<2>(buf_, v); }

void ByteWriter::u32(std::uint32_t v) { append_be<4>(buf_, v); }

void ByteWriter::u64(std::uint64_t v) { append_be<8>(buf_, v); }

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
