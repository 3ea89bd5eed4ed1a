#include "core/umtp.hpp"

#include "xml/parser.hpp"

namespace umiddle::core::umtp {
namespace {

std::size_t str16_size(std::string_view s) { return 2 + s.size(); }

/// A writer for a frame whose body is `body` bytes, holding its u32 length
/// prefix: the frame is built in one buffer of exactly its size (DESIGN.md
/// §8.4).
ByteWriter framed(std::size_t body) {
  ByteWriter w(4 + body);
  w.u32(static_cast<std::uint32_t>(body));
  return w;
}

Bytes encode_one(const DataFrame& data) {
  return encode_data(data.dst, data.message, data.message.deadline_ns);
}

Bytes encode_one(const ConnectFrame& conn) {
  const auto* fixed = std::get_if<PortRef>(&conn.dst);
  const std::string query =
      fixed != nullptr ? std::string() : std::get<Query>(conn.dst).to_xml().to_string();
  ByteWriter w = framed(1 + 8 + 8 + str16_size(conn.src.port) + 1 +
                        (fixed != nullptr ? 8 + str16_size(fixed->port) : str16_size(query)));
  w.u8(static_cast<std::uint8_t>(FrameType::connect));
  w.u64(conn.path.value());
  w.u64(conn.src.translator.value());
  w.str16(conn.src.port);
  if (fixed != nullptr) {
    w.u8(1);
    w.u64(fixed->translator.value());
    w.str16(fixed->port);
  } else {
    w.u8(2);
    w.str16(query);
  }
  return w.take();
}

Bytes encode_one(const DisconnectFrame& disc) {
  ByteWriter w = framed(1 + 8);
  w.u8(static_cast<std::uint8_t>(FrameType::disconnect));
  w.u64(disc.path.value());
  return w.take();
}

Bytes encode_one(const AckFrame& ack) {
  ByteWriter w = framed(1 + 8 + 8);
  w.u8(static_cast<std::uint8_t>(FrameType::ack));
  w.u64(ack.epoch);
  w.u64(ack.count);
  return w.take();
}

Bytes encode_one(const ResumeFrame& resume) {
  ByteWriter w = framed(1 + 4 * 8);
  w.u8(static_cast<std::uint8_t>(FrameType::resume));
  w.u64(resume.node.value());
  w.u64(resume.epoch);
  w.u64(resume.prev_channel);
  w.u64(resume.base_seq);
  return w.take();
}

Bytes encode_one(const SeqFrame& seq) {
  return encode_seq(seq.seq, std::visit([](const auto& f) { return encode_one(f); }, seq.frame));
}

/// A body decoded, once every field was there and nothing is left.
Result<void> complete(const ByteReader& r, const char* name) {
  if (!r.ok()) return r.error();
  if (!r.at_end()) {
    return make_error(Errc::protocol_error, std::string("trailing bytes in ") + name + " frame");
  }
  return ok_result();
}

/// The MIME text the last DATA frame carried, and its MimeType::parse. A link
/// almost always repeats one type, so the text is parsed once: the memo is
/// compared on the exact bytes and refilled only by a successful parse, so it
/// gives what parse would. One entry, so no peer can grow it; the event core
/// is single-threaded (lint rule `threads`).
struct MimeMemo {
  std::string text = "*/*";
  MimeType type;  ///< MimeType::parse("*/*")
};
MimeMemo last_mime;

/// The DATA fields, decoded straight into the frame's message.
Result<void> decode_data(ByteReader& r, std::int64_t deadline_ns, DataFrame& f) {
  f.message.deadline_ns = deadline_ns;
  f.dst.translator = TranslatorId(r.u64());
  f.dst.port = r.str16();
  const std::string_view mime_text = r.str16_view();
  if (!r.ok()) return r.error();
  if (mime_text != last_mime.text) {
    auto mime = MimeType::parse(mime_text);
    if (!mime.ok()) return mime.error();
    last_mime.type = std::move(mime).take();
    last_mime.text.assign(mime_text);
  }
  f.message.type = last_mime.type;
  const std::uint16_t n_meta = r.u16();
  for (std::uint16_t i = 0; i < n_meta && r.ok(); ++i) {
    std::string key = r.str16();
    f.message.meta[std::move(key)] = r.str16();
  }
  f.message.payload = r.bytes(r.u32());
  return complete(r, "DATA");
}

/// A DATA, DATA_DL, CONNECT or DISCONNECT body, read past its type byte,
/// decoded into `out`: a Frame or a SEQ's inner frame, default-built, so a
/// DATA body fills the DataFrame it already holds.
template <typename Out>
Result<void> decode_payload(std::uint8_t type, ByteReader& r, Out& out) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::data:
      return decode_data(r, 0, std::get<DataFrame>(out));
    case FrameType::data_deadline:
      return decode_data(r, static_cast<std::int64_t>(r.u64()), std::get<DataFrame>(out));
    case FrameType::connect: {
      auto& f = out.template emplace<ConnectFrame>(
          ConnectFrame{PathId(r.u64()), PortRef{TranslatorId(r.u64()), r.str16()}, {}});
      const std::uint8_t kind = r.u8();
      if (!r.ok()) return r.error();
      if (kind == 1) {
        f.dst = PortRef{TranslatorId(r.u64()), r.str16()};
      } else if (kind == 2) {
        const std::string text = r.str16();
        if (!r.ok()) return r.error();
        auto el = xml::parse(text);
        if (!el.ok()) return el.error();
        auto q = Query::from_xml(el.value());
        if (!q.ok()) return q.error();
        f.dst = std::move(q).take();
      } else {
        return make_error(Errc::protocol_error, "bad CONNECT dst kind");
      }
      return complete(r, "CONNECT");
    }
    case FrameType::disconnect:
      out = DisconnectFrame{PathId(r.u64())};
      return complete(r, "DISCONNECT");
    default:
      return make_error(Errc::protocol_error, "unknown frame type " + std::to_string(type));
  }
}

/// One frame body decoded into `out`, a default-built Frame. On an error
/// `out` holds whatever was decoded so far.
Result<void> decode_frame(std::span<const std::uint8_t> body, Frame& out) {
  ByteReader r(body);
  const std::uint8_t type = r.u8();
  if (!r.ok()) return r.error();
  switch (static_cast<FrameType>(type)) {
    case FrameType::ack:
      out = AckFrame{r.u64(), r.u64()};
      return complete(r, "ACK");
    case FrameType::resume:
      out = ResumeFrame{NodeId(r.u64()), r.u64(), r.u64(), r.u64()};
      return complete(r, "RESUME");
    case FrameType::seq: {
      auto& f = out.emplace<SeqFrame>();
      f.seq = r.u64();
      if (!r.ok()) return r.error();
      // The inner frame is decoded here, with its envelope, and checked
      // eagerly: only payload-class frames may be replayed. A SEQ wrapping
      // SEQ/ACK/RESUME (or garbage) is a protocol error and must poison the
      // assembler like any other malformed frame.
      const std::span<const std::uint8_t> inner = body.subspan(1 + 8);
      if (inner.empty()) return make_error(Errc::protocol_error, "empty SEQ body");
      const auto inner_type = static_cast<FrameType>(inner.front());
      if (inner_type != FrameType::data && inner_type != FrameType::data_deadline &&
          inner_type != FrameType::connect && inner_type != FrameType::disconnect) {
        return make_error(Errc::protocol_error, "SEQ wraps non-replayable frame type " +
                                                    std::to_string(inner.front()));
      }
      ByteReader inner_reader(inner);  // underruns report offsets in the inner body
      return decode_payload(inner_reader.u8(), inner_reader, f.frame);
    }
    default:
      return decode_payload(type, r, out);
  }
}

}  // namespace

Bytes encode(const Frame& frame) {
  return std::visit([](const auto& f) { return encode_one(f); }, frame);
}

Bytes encode_data(const PortRef& dst, const Message& message, std::int64_t deadline_ns) {
  const MimeType& mime = message.type;
  const std::size_t mime_size = mime.type().size() + 1 + mime.subtype().size();
  std::size_t body = 1 + (deadline_ns != 0 ? 8 : 0) + 8 + str16_size(dst.port) + 2 + mime_size +
                     2 + 4 + message.payload.size();
  for (const auto& [k, v] : message.meta) body += str16_size(k) + str16_size(v);
  ByteWriter w = framed(body);
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
  // MimeType::to_string()'s bytes, written without building the string.
  w.u16(static_cast<std::uint16_t>(mime_size));
  w.str(mime.type());
  w.u8('/');
  w.str(mime.subtype());
  w.u16(static_cast<std::uint16_t>(message.meta.size()));
  for (const auto& [k, v] : message.meta) {
    w.str16(k);
    w.str16(v);
  }
  w.u32(static_cast<std::uint32_t>(message.payload.size()));
  w.bytes(message.payload);
  return w.take();
}

Bytes encode_seq(std::uint64_t seq, const Bytes& prefixed_frame) {
  const auto body = std::span<const std::uint8_t>(prefixed_frame).subspan(4);
  ByteWriter w = framed(1 + 8 + body.size());
  w.u8(static_cast<std::uint8_t>(FrameType::seq));
  w.u64(seq);
  w.bytes(body);
  return w.take();
}

Result<std::size_t> next_frame(std::span<const std::uint8_t> buffer, std::vector<Frame>& out) {
  ByteReader r(buffer);
  const std::size_t len = r.u32();
  if (!r.ok()) return 0;
  if (len > kMaxFrame - 4) {
    return make_error(Errc::protocol_error, "frame too large: " + std::to_string(len));
  }
  if (r.remaining() < len) return 4 + len;  // incomplete: its full length
  // Decoded in place, in the frame the reader hands on; a malformed body
  // leaves no half-decoded frame behind.
  if (auto decoded = decode_frame(buffer.subspan(4, len), out.emplace_back()); !decoded.ok()) {
    out.pop_back();
    return decoded.error();
  }
  return 4 + len;
}

Result<Frame> decode_body(std::span<const std::uint8_t> body) {
  Frame frame;
  if (auto decoded = decode_frame(body, frame); !decoded.ok()) return decoded.error();
  return frame;
}

}  // namespace umiddle::core::umtp
