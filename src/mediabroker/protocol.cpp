#include "mediabroker/protocol.hpp"

namespace umiddle::mb {

Bytes Frame::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.str16(stream);
  switch (op) {
    case Op::produce:
    case Op::announce:
      w.str16(media_type);
      break;
    case Op::data:
      w.u32(static_cast<std::uint32_t>(payload.size()));
      w.bytes(payload);
      break;
    case Op::consume:
    case Op::watch:
    case Op::retire:
      break;
  }
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
