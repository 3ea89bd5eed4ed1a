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
  auto op = r.u8();
  if (!op.ok()) return 0;
  if (op.value() < 1 || op.value() > 6) {
    return make_error(Errc::protocol_error, "mb: bad opcode");
  }
  auto stream = r.str16();
  if (!stream.ok()) return 0;  // partial
  Frame frame;
  frame.op = static_cast<Op>(op.value());
  frame.stream = std::move(stream).take();
  switch (frame.op) {
    case Op::produce:
    case Op::announce: {
      auto type = r.str16();
      if (!type.ok()) return 0;
      frame.media_type = std::move(type).take();
      break;
    }
    case Op::data: {
      auto len = r.u32();
      if (!len.ok()) return 0;
      auto payload = r.bytes(len.value());
      if (!payload.ok()) return 0;
      frame.payload = std::move(payload).take();
      break;
    }
    default:
      break;
  }
  out.push_back(std::move(frame));
  return r.position();
}

}  // namespace umiddle::mb
