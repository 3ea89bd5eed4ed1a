// Binary codec support for the wire protocols (OBEX, SDP, HIDP, RMI, UMTP, MB).
// Big-endian on the wire, matching the Bluetooth and Java conventions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace umiddle {

using Bytes = std::vector<std::uint8_t>;

/// Shared immutable payload buffer. The netsim/UMTP hot path hands message
/// payloads around as PayloadPtr so a frame is referenced, not copied, at each
/// of marshal → frame → segment → deliver. Once wrapped, the buffer must never
/// be mutated — any layer that needs to modify data makes its own copy.
using PayloadPtr = std::shared_ptr<const Bytes>;

inline PayloadPtr make_payload(Bytes data) {
  return std::make_shared<const Bytes>(std::move(data));
}

/// Append-only big-endian encoder. A frame encoder on a hot path computes its
/// frame's size first and builds it in one buffer of exactly that size
/// (DESIGN.md §8.4, lint rule `sized-frame`); the default writer grows.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// A writer whose buffer is reserved for exactly `exact` bytes.
  explicit ByteWriter(std::size_t exact) { buf_.reserve(exact); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  void str(std::string_view s);  ///< raw bytes, no length prefix
  /// u16 length prefix followed by the string bytes.
  void str16(std::string_view s);

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked big-endian decoder over a borrowed buffer. Reads return
/// plain values. The first read past the end fails the reader: that read and
/// every later one return zero or empty, position() stops moving and
/// remaining() is 0. A decoder reads its fields straight through and checks
/// ok() before it acts on a value it read and once at the end (DESIGN.md §7.6).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(uint(1)); }
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(uint(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(uint(4)); }
  [[nodiscard]] std::uint64_t u64() { return uint(8); }
  [[nodiscard]] Bytes bytes(std::size_t n) {
    const std::uint8_t* p = take(n);
    return p != nullptr ? Bytes(p, p + n) : Bytes();
  }
  [[nodiscard]] std::string str(std::size_t n) {
    const std::uint8_t* p = take(n);
    return p != nullptr ? std::string(reinterpret_cast<const char*>(p), n) : std::string();
  }
  /// u16 length prefix followed by that many string bytes.
  [[nodiscard]] std::string str16() { return str(u16()); }
  /// str16() as a view into the buffer being read, which must outlive it.
  [[nodiscard]] std::string_view str16_view() {
    const std::size_t n = u16();
    const std::uint8_t* p = take(n);
    return p != nullptr ? std::string_view(reinterpret_cast<const char*>(p), n)
                        : std::string_view();
  }
  void skip(std::size_t n) { take(n); }

  bool ok() const { return need_ == 0; }
  /// The first failed read, as a parse_error. Meaningful only when !ok().
  Error error() const {
    return make_error(Errc::parse_error, "buffer underrun: need " + std::to_string(need_) +
                                             " bytes at offset " + std::to_string(pos_) +
                                             ", have " + std::to_string(have_));
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

 private:
  /// The next n bytes, consumed; or nullptr, failing the reader, if they are
  /// not there.
  const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) {
      if (ok()) {
        need_ = n;
        have_ = remaining();
      }
      data_ = data_.first(pos_);  // a failed reader has nothing left to read
      return nullptr;
    }
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::uint64_t uint(std::size_t n) {
    const std::uint8_t* p = take(n);
    if (p == nullptr) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | p[i];
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::size_t need_ = 0;  ///< size of the first read that did not fit; 0 while ok
  std::size_t have_ = 0;  ///< bytes that were left for it
};

Bytes to_bytes(std::string_view s);
std::string to_string(std::span<const std::uint8_t> data);

/// Hex dump (debugging aid), e.g. "de ad be ef".
std::string hex(std::span<const std::uint8_t> data);

}  // namespace umiddle
