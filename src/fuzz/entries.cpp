#include "fuzz/entries.hpp"

#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/base64.hpp"
#include "common/bytes.hpp"
#include "core/umtp.hpp"
#include "core/usdl.hpp"
#include "xml/parser.hpp"

namespace umiddle::fuzz {

int fuzz_xml_parse(const std::uint8_t* data, std::size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto doc = xml::parse(text);
  return doc.ok() ? 1 : 0;
}

int fuzz_usdl_parse(const std::uint8_t* data, std::size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto doc = xml::parse(text);
  if (!doc.ok()) return 0;
  auto usdl = core::parse_usdl(doc.value());
  return usdl.ok() ? 1 : 0;
}

int fuzz_umtp_decode(const std::uint8_t* data, std::size_t size) {
  // First the body decoder on the raw bytes (no length prefix): this is the
  // layer that must survive truncation, bit flips and lying inner lengths.
  auto frame = core::umtp::decode_body({data, size});

  // Then the assembler on a length-prefixed copy, fed in uneven chunks so the
  // buffering/reassembly state machine runs too. The prefix is the *true*
  // size; inner-length lies are already part of `data`.
  Bytes wire;
  wire.reserve(size + 4);
  wire.push_back(static_cast<std::uint8_t>(size >> 24));
  wire.push_back(static_cast<std::uint8_t>(size >> 16));
  wire.push_back(static_cast<std::uint8_t>(size >> 8));
  wire.push_back(static_cast<std::uint8_t>(size));
  wire.insert(wire.end(), data, data + size);

  core::umtp::FrameAssembler assembler;
  std::vector<core::umtp::Frame> out;
  bool fed_ok = true;
  for (std::size_t off = 0; off < wire.size();) {
    std::size_t chunk = 1 + (off * 7) % 13;  // deterministic uneven chunking
    chunk = std::min(chunk, wire.size() - off);
    if (auto r = assembler.feed({wire.data() + off, chunk}, out); !r.ok()) {
      fed_ok = false;  // poisoned assembler: keep feeding, must stay an error
    }
    off += chunk;
  }
  // Both layers must agree on well-formedness of a correctly-prefixed frame.
  return (frame.ok() && fed_ok && !out.empty()) ? 1 : 0;
}

int fuzz_base64_decode(const std::uint8_t* data, std::size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto decoded = base64::decode(text);
  if (!decoded.ok()) return 0;
  std::size_t padding = 0;
  if (size >= 1 && text[size - 1] == '=') ++padding;
  if (size >= 2 && text[size - 2] == '=') ++padding;
  if (decoded.value().size() != size / 4 * 3 - padding) std::abort();
  auto again = base64::decode(base64::encode(decoded.value()));
  if (!again.ok() || again.value() != decoded.value()) std::abort();
  return 1;
}

}  // namespace umiddle::fuzz
