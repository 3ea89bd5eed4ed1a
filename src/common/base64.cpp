#include "common/base64.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace umiddle::base64 {
namespace {

constexpr char kAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The two output characters of every 12-bit input value, so encoding a
/// 3-byte group takes two lookups instead of four.
constexpr std::array<std::array<char, 2>, 4096> kPairs = [] {
  std::array<std::array<char, 2>, 4096> table{};
  for (std::size_t v = 0; v < table.size(); ++v) {
    table[v] = {kAlphabet[v >> 6], kAlphabet[v & 63]};
  }
  return table;
}();

/// Decode tables, one per position in a 4-character group, each holding the
/// sextet already shifted into place: a group decodes as the OR of four
/// lookups. Every byte outside the alphabet ('=' included) maps to kInvalid,
/// whose bit 24 survives any OR, so one check covers a whole run of groups.
constexpr std::uint32_t kInvalid = 0x01FFFFFF;

constexpr std::array<std::array<std::uint32_t, 256>, 4> kDecode = [] {
  std::array<std::array<std::uint32_t, 256>, 4> tables{};
  for (std::size_t pos = 0; pos < 4; ++pos) {
    tables[pos].fill(kInvalid);
    for (std::uint32_t i = 0; i < 64; ++i) {
      tables[pos][static_cast<unsigned char>(kAlphabet[i])] = i << (18 - 6 * pos);
    }
  }
  return tables;
}();

/// The validating group loop: decodes the 4-character groups of `text` from
/// offset `from` on, appending to `out`. Checks come in a fixed order per
/// character, so when an input has several faults the first one wins.
Result<void> decode_groups(std::string_view text, std::size_t from, Bytes& out) {
  for (std::size_t i = from; i < text.size(); i += 4) {
    int pad = 0;
    std::uint32_t v = 0;
    for (int j = 0; j < 4; ++j) {
      char c = text[i + static_cast<std::size_t>(j)];
      if (c == '=') {
        // Padding is only legal in the last group, positions 3 or 2+3.
        if (i + 4 != text.size() || j < 2) {
          return make_error(Errc::parse_error, "base64 misplaced padding");
        }
        ++pad;
        v <<= 6;
        continue;
      }
      if (pad > 0) return make_error(Errc::parse_error, "base64 data after padding");
      std::uint32_t d = kDecode[3][static_cast<unsigned char>(c)];
      if (d == kInvalid) return make_error(Errc::parse_error, "base64 invalid character");
      v = (v << 6) | d;
    }
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    if (pad < 2) out.push_back(static_cast<std::uint8_t>(v >> 8));
    if (pad < 1) out.push_back(static_cast<std::uint8_t>(v));
  }
  return ok_result();
}

}  // namespace

std::string encode(std::span<const std::uint8_t> data) {
  std::string out((data.size() + 2) / 3 * 4, '\0');
  char* o = out.data();
  const std::uint8_t* in = data.data();
  const std::size_t full = data.size() / 3 * 3;
  std::size_t i = 0;
  // Two groups per step from one 8-byte big-endian load, of which the top 48
  // bits are the groups, while 8 input bytes remain; then one group per step.
  for (; i + 8 <= data.size(); i += 6, o += 8) {
    std::uint64_t v = 0;
    std::memcpy(&v, in + i, sizeof v);
    if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
    std::memcpy(o, kPairs[v >> 52].data(), 2);
    std::memcpy(o + 2, kPairs[(v >> 40) & 4095].data(), 2);
    std::memcpy(o + 4, kPairs[(v >> 28) & 4095].data(), 2);
    std::memcpy(o + 6, kPairs[(v >> 16) & 4095].data(), 2);
  }
  for (; i < full; i += 3, o += 4) {
    std::uint32_t v = (static_cast<std::uint32_t>(in[i]) << 16) |
                      (static_cast<std::uint32_t>(in[i + 1]) << 8) | in[i + 2];
    std::memcpy(o, kPairs[v >> 12].data(), 2);
    std::memcpy(o + 2, kPairs[v & 4095].data(), 2);
  }
  const std::size_t rem = data.size() - full;
  if (rem != 0) {
    std::uint32_t v = static_cast<std::uint32_t>(in[full]) << 16;
    if (rem == 2) v |= static_cast<std::uint32_t>(in[full + 1]) << 8;
    o[0] = kAlphabet[v >> 18];
    o[1] = kAlphabet[(v >> 12) & 63];
    o[2] = rem == 2 ? kAlphabet[(v >> 6) & 63] : '=';
    o[3] = '=';
  }
  return out;
}

Result<Bytes> decode(std::string_view text) {
  if (text.size() % 4 != 0) {
    return make_error(Errc::parse_error, "base64 length not a multiple of 4");
  }
  // Fast path over every group but the last, which alone may hold padding:
  // one table lookup per character and a single validity check at the end.
  const std::size_t body = text.empty() ? 0 : text.size() - 4;
  Bytes out;
  out.reserve(text.size() / 4 * 3);
  out.resize(body / 4 * 3);
  const auto* in = reinterpret_cast<const unsigned char*>(text.data());
  std::uint8_t* o = out.data();
  std::uint32_t seen = 0;
  for (std::size_t i = 0; i < body; i += 4, o += 3) {
    const std::uint32_t v = kDecode[0][in[i]] | kDecode[1][in[i + 1]] |
                            kDecode[2][in[i + 2]] | kDecode[3][in[i + 3]];
    seen |= v;
    o[0] = static_cast<std::uint8_t>(v >> 16);
    o[1] = static_cast<std::uint8_t>(v >> 8);
    o[2] = static_cast<std::uint8_t>(v);
  }
  // A bad character or an early '=' somewhere in the body: rerun the
  // validating loop from the start so the error is exactly the one it finds.
  std::size_t from = body;
  if (seen > 0xFFFFFF) {
    out.clear();
    from = 0;
  }
  if (auto r = decode_groups(text, from, out); !r.ok()) return r.error();
  return out;
}

}  // namespace umiddle::base64
