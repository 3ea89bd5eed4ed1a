#include "core/umtp.hpp"

#include "xml/parser.hpp"

namespace umiddle::core::umtp {
namespace {

void encode_data_body(const PortRef& dst, const Message& message, std::int64_t deadline_ns,
                      ByteWriter& w) {
  // A deadline upgrades the frame to DATA_DL; deadline-free messages keep the
  // exact legacy DATA byte layout (fault-free-invisibility, DESIGN.md §11).
  if (deadline_ns != 0) {
    w.u8(static_cast<std::uint8_t>(FrameType::data_deadline));
    w.u64(static_cast<std::uint64_t>(deadline_ns));
  } else {
    w.u8(static_cast<std::uint8_t>(FrameType::data));
  }
  w.u64(dst.translator.value());
  w.str16(dst.port);
  w.str16(message.type.to_string());
  w.u16(static_cast<std::uint16_t>(message.meta.size()));
  for (const auto& [k, v] : message.meta) {
    w.str16(k);
    w.str16(v);
  }
  w.u32(static_cast<std::uint32_t>(message.payload.size()));
  w.bytes(message.payload);
}

void encode_body(const Frame& frame, ByteWriter& w) {
  if (const auto* data = std::get_if<DataFrame>(&frame)) {
    encode_data_body(data->dst, data->message, data->message.deadline_ns, w);
  } else if (const auto* conn = std::get_if<ConnectFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::connect));
    w.u64(conn->path.value());
    w.u64(conn->src.translator.value());
    w.str16(conn->src.port);
    if (const auto* fixed = std::get_if<PortRef>(&conn->dst)) {
      w.u8(1);
      w.u64(fixed->translator.value());
      w.str16(fixed->port);
    } else {
      w.u8(2);
      w.str16(std::get<Query>(conn->dst).to_xml().to_string());
    }
  } else if (const auto* disc = std::get_if<DisconnectFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::disconnect));
    w.u64(disc->path.value());
  } else if (const auto* ack = std::get_if<AckFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::ack));
    w.u64(ack->epoch);
    w.u64(ack->count);
  } else if (const auto* resume = std::get_if<ResumeFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::resume));
    w.u64(resume->node.value());
    w.u64(resume->epoch);
    w.u64(resume->prev_channel);
    w.u64(resume->base_seq);
  } else {
    const auto& seq = std::get<SeqFrame>(frame);
    w.u8(static_cast<std::uint8_t>(FrameType::seq));
    w.u64(seq.seq);
    w.bytes(seq.body);
  }
}

Result<Frame> decode_data(ByteReader& r, std::int64_t deadline_ns) {
  DataFrame f;
  f.message.deadline_ns = deadline_ns;
  auto id = r.u64();
  if (!id.ok()) return id.error();
  f.dst.translator = TranslatorId(id.value());
  auto port = r.str16();
  if (!port.ok()) return port.error();
  f.dst.port = std::move(port).take();
  auto mime_text = r.str16();
  if (!mime_text.ok()) return mime_text.error();
  auto mime = MimeType::parse(mime_text.value());
  if (!mime.ok()) return mime.error();
  f.message.type = std::move(mime).take();
  auto n_meta = r.u16();
  if (!n_meta.ok()) return n_meta.error();
  for (std::uint16_t i = 0; i < n_meta.value(); ++i) {
    auto k = r.str16();
    if (!k.ok()) return k.error();
    auto v = r.str16();
    if (!v.ok()) return v.error();
    f.message.meta[k.value()] = v.value();
  }
  auto len = r.u32();
  if (!len.ok()) return len.error();
  auto payload = r.bytes(len.value());
  if (!payload.ok()) return payload.error();
  f.message.payload = std::move(payload).take();
  if (!r.at_end()) return make_error(Errc::protocol_error, "trailing bytes in DATA frame");
  return Frame{std::move(f)};
}

}  // namespace

Bytes encode(const Frame& frame) {
  // Single-buffer encode: write a length placeholder, the body, then patch the
  // length — the seed's body-then-copy pattern copied every payload twice.
  ByteWriter out;
  out.u32(0);
  encode_body(frame, out);
  out.patch_u32(0, static_cast<std::uint32_t>(out.size() - 4));
  return out.take();
}

Bytes encode_data(const PortRef& dst, const Message& message, std::int64_t deadline_ns) {
  ByteWriter out;
  out.u32(0);
  encode_data_body(dst, message, deadline_ns, out);
  out.patch_u32(0, static_cast<std::uint32_t>(out.size() - 4));
  return out.take();
}

Bytes encode_seq(std::uint64_t seq, const Bytes& prefixed_frame) {
  ByteWriter out;
  out.u32(0);
  out.u8(static_cast<std::uint8_t>(FrameType::seq));
  out.u64(seq);
  out.bytes(std::span<const std::uint8_t>(prefixed_frame).subspan(4));
  out.patch_u32(0, static_cast<std::uint32_t>(out.size() - 4));
  return out.take();
}

Result<Frame> decode_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  auto type = r.u8();
  if (!type.ok()) return type.error();
  switch (static_cast<FrameType>(type.value())) {
    case FrameType::data:
      return decode_data(r, 0);
    case FrameType::data_deadline: {
      auto deadline = r.u64();
      if (!deadline.ok()) return deadline.error();
      return decode_data(r, static_cast<std::int64_t>(deadline.value()));
    }
    case FrameType::connect: {
      ConnectFrame f;
      auto path = r.u64();
      if (!path.ok()) return path.error();
      f.path = PathId(path.value());
      auto src_id = r.u64();
      if (!src_id.ok()) return src_id.error();
      f.src.translator = TranslatorId(src_id.value());
      auto src_port = r.str16();
      if (!src_port.ok()) return src_port.error();
      f.src.port = std::move(src_port).take();
      auto kind = r.u8();
      if (!kind.ok()) return kind.error();
      if (kind.value() == 1) {
        PortRef dst;
        auto dst_id = r.u64();
        if (!dst_id.ok()) return dst_id.error();
        dst.translator = TranslatorId(dst_id.value());
        auto dst_port = r.str16();
        if (!dst_port.ok()) return dst_port.error();
        dst.port = std::move(dst_port).take();
        f.dst = std::move(dst);
      } else if (kind.value() == 2) {
        auto text = r.str16();
        if (!text.ok()) return text.error();
        auto el = xml::parse(text.value());
        if (!el.ok()) return el.error();
        auto q = Query::from_xml(el.value());
        if (!q.ok()) return q.error();
        f.dst = std::move(q).take();
      } else {
        return make_error(Errc::protocol_error, "bad CONNECT dst kind");
      }
      if (!r.at_end()) return make_error(Errc::protocol_error, "trailing bytes in CONNECT frame");
      return Frame{std::move(f)};
    }
    case FrameType::disconnect: {
      auto path = r.u64();
      if (!path.ok()) return path.error();
      if (!r.at_end()) return make_error(Errc::protocol_error, "trailing bytes in DISCONNECT frame");
      return Frame{DisconnectFrame{PathId(path.value())}};
    }
    case FrameType::ack: {
      auto epoch = r.u64();
      if (!epoch.ok()) return epoch.error();
      auto count = r.u64();
      if (!count.ok()) return count.error();
      if (!r.at_end()) return make_error(Errc::protocol_error, "trailing bytes in ACK frame");
      return Frame{AckFrame{epoch.value(), count.value()}};
    }
    case FrameType::resume: {
      ResumeFrame f;
      auto node = r.u64();
      if (!node.ok()) return node.error();
      f.node = NodeId(node.value());
      auto epoch = r.u64();
      if (!epoch.ok()) return epoch.error();
      f.epoch = epoch.value();
      auto prev = r.u64();
      if (!prev.ok()) return prev.error();
      f.prev_channel = prev.value();
      auto base = r.u64();
      if (!base.ok()) return base.error();
      f.base_seq = base.value();
      if (!r.at_end()) return make_error(Errc::protocol_error, "trailing bytes in RESUME frame");
      return Frame{std::move(f)};
    }
    case FrameType::seq: {
      SeqFrame f;
      auto seq = r.u64();
      if (!seq.ok()) return seq.error();
      f.seq = seq.value();
      auto rest = r.bytes(r.remaining());
      if (!rest.ok()) return rest.error();
      f.body = std::move(rest).take();
      // Validate the inner frame eagerly: only payload-class frames may be
      // replayed. A SEQ wrapping SEQ/ACK/RESUME (or garbage) is a protocol
      // error and must poison the assembler like any other malformed frame.
      if (f.body.empty()) return make_error(Errc::protocol_error, "empty SEQ body");
      const auto inner_type = static_cast<FrameType>(f.body.front());
      if (inner_type != FrameType::data && inner_type != FrameType::data_deadline &&
          inner_type != FrameType::connect && inner_type != FrameType::disconnect) {
        return make_error(Errc::protocol_error, "SEQ wraps non-replayable frame type " +
                                                    std::to_string(f.body.front()));
      }
      auto inner = decode_body(f.body);
      if (!inner.ok()) return inner.error();
      return Frame{std::move(f)};
    }
  }
  return make_error(Errc::protocol_error, "unknown frame type " + std::to_string(type.value()));
}

Result<std::size_t> next_frame(std::span<const std::uint8_t> buffer, std::vector<Frame>& out) {
  if (buffer.size() < 4) return 0;
  const std::size_t len = ByteReader(buffer).u32().value();
  if (len > kMaxFrame - 4) {
    return make_error(Errc::protocol_error, "frame too large: " + std::to_string(len));
  }
  if (buffer.size() < 4 + len) return 0;
  auto frame = decode_body(buffer.subspan(4, len));
  if (!frame.ok()) return frame.error();
  out.push_back(std::move(frame).take());
  return 4 + len;
}

}  // namespace umiddle::core::umtp
