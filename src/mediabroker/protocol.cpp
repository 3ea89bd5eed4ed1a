#include "mediabroker/protocol.hpp"

namespace umiddle::mb {
namespace {

/// The bytes of a DATA frame for `stream` before its payload.
std::size_t data_head_size(std::string_view stream) { return 1 + 2 + stream.size() + 4; }

Frame& head_of(Frame& frame) { return frame; }
Frame& head_of(WireFrame& frame) { return frame.head; }

/// What a complete DATA frame `bytes` leaves in the decoded frame.
void keep(Frame& frame, std::span<const std::uint8_t> bytes) {
  const auto payload = bytes.subspan(data_head_size(frame.stream));
  frame.payload.assign(payload.begin(), payload.end());
}
void keep(WireFrame& frame, std::span<const std::uint8_t> bytes) {
  frame.wire.assign(bytes.begin(), bytes.end());
}

/// The one decode step: both readers share its header parse and differ only
/// in what a DATA frame keeps.
template <typename F>
Result<std::size_t> decode(std::span<const std::uint8_t> buffer, std::vector<F>& out) {
  ByteReader r(buffer);
  const std::uint8_t op = r.u8();
  if (!r.ok()) return 0;
  if (op < 1 || op > 6) return make_error(Errc::protocol_error, "mb: bad opcode");
  F decoded;
  Frame& frame = head_of(decoded);
  frame.op = static_cast<Op>(op);
  frame.stream = r.str16();
  if (frame.op == Op::produce || frame.op == Op::announce) frame.media_type = r.str16();
  const std::size_t len = frame.op == Op::data ? r.u32() : 0;
  const std::size_t size = r.position() + len;
  if (!r.ok() || size > buffer.size()) return 0;  // partial
  if (frame.op == Op::data) keep(decoded, buffer.first(size));
  out.push_back(std::move(decoded));
  return size;
}

}  // namespace

Bytes Frame::encode() const {
  if (op == Op::data) return encode_data(stream, payload);
  const bool typed = op == Op::produce || op == Op::announce;
  ByteWriter w(1 + 2 + stream.size() + (typed ? 2 + media_type.size() : 0));
  w.u8(static_cast<std::uint8_t>(op));
  w.str16(stream);
  if (typed) w.str16(media_type);
  return w.take();
}

std::span<const std::uint8_t> WireFrame::payload() const {
  return std::span(wire).subspan(data_head_size(head.stream));
}

Bytes WireFrame::encode() const { return head.op == Op::data ? wire : head.encode(); }

Bytes encode_data(std::string_view stream, std::span<const std::uint8_t> payload) {
  ByteWriter w(data_head_size(stream) + payload.size());
  w.u8(static_cast<std::uint8_t>(Op::data));
  w.str16(stream);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  return w.take();
}

Result<std::size_t> next_frame(std::span<const std::uint8_t> buffer, std::vector<Frame>& out) {
  return decode(buffer, out);
}

Result<std::size_t> next_wire_frame(std::span<const std::uint8_t> buffer,
                                    std::vector<WireFrame>& out) {
  return decode(buffer, out);
}

}  // namespace umiddle::mb
