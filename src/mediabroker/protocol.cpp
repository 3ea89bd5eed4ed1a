#include "mediabroker/protocol.hpp"

namespace umiddle::mb {

Bytes Frame::encode() const {
  if (op == Op::data) return encode_data(stream, payload);
  const bool typed = op == Op::produce || op == Op::announce;
  ByteWriter w(1 + 2 + stream.size() + (typed ? 2 + media_type.size() : 0));
  w.u8(static_cast<std::uint8_t>(op));
  w.str16(stream);
  if (typed) w.str16(media_type);
  return w.take();
}

Bytes encode_data(std::string_view stream, std::span<const std::uint8_t> payload) {
  ByteWriter w(1 + 2 + stream.size() + 4 + payload.size());
  w.u8(static_cast<std::uint8_t>(Op::data));
  w.str16(stream);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  return w.take();
}

Result<std::size_t> next_frame(std::span<const std::uint8_t> buffer, std::vector<Frame>& out) {
  ByteReader r(buffer);
  const std::uint8_t op = r.u8();
  if (!r.ok()) return 0;
  if (op < 1 || op > 6) return make_error(Errc::protocol_error, "mb: bad opcode");
  Frame frame{static_cast<Op>(op), r.str16(), {}, {}};
  if (frame.op == Op::produce || frame.op == Op::announce) frame.media_type = r.str16();
  if (frame.op == Op::data) frame.payload = r.bytes(r.u32());
  if (!r.ok()) return 0;  // partial
  out.push_back(std::move(frame));
  return r.position();
}

}  // namespace umiddle::mb
