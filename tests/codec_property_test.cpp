// Properties of the six binary wire codecs (UMTP, OBEX, SDP, RMI, MediaBroker
// and motes Active Messages), over seeded generated values:
//   * encode(x) equals the bytes a reference model builds field by field from
//     the wire format documented in each codec's header, and decode(encode(x))
//     gives x back;
//   * every strict prefix of an encoding gets a fixed verdict. A stream decode
//     step returns 0 ("need more") and yields nothing. umtp::decode_body,
//     obex::decode and motes::Reading::decode report the underrun at the first
//     field that does not fit, with its literal parse_error message, or the
//     protocol error the format puts ahead of it;
//   * umtp::Reader, fed a frame whole or byte by byte, hands on the frame
//     umtp::decode_body decodes (a SEQ with the inner frame decode_body
//     gives for its inner body), and fails a malformed one with its code;
//     it types each DATA frame as MimeType::parse types its MIME text,
//     whatever text the frame before it carried;
//   * every UMTP, MB and OBEX frame is built in one buffer of its exact size.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bluetooth/obex.hpp"
#include "bluetooth/sdp.hpp"
#include "common/rand.hpp"
#include "core/umtp.hpp"
#include "mediabroker/protocol.hpp"
#include "motes/motes.hpp"
#include "rmi/protocol.hpp"

namespace umiddle {
namespace {

namespace umtp = core::umtp;
namespace obex = bt::obex;

constexpr int kCases = 150;

/// A reference encoding built field by field, which remembers where every
/// field a decoder reads begins and how wide it is.
class Layout {
 public:
  Layout& u8(std::uint64_t v) { return uint(1, v); }
  Layout& u16(std::uint64_t v) { return uint(2, v); }
  Layout& u32(std::uint64_t v) { return uint(4, v); }
  Layout& u64(std::uint64_t v) { return uint(8, v); }
  Layout& raw(std::span<const std::uint8_t> data) {
    fields_.push_back({wire_.size(), data.size()});
    wire_.insert(wire_.end(), data.begin(), data.end());
    return *this;
  }
  Layout& raw(std::string_view s) { return raw(to_bytes(s)); }
  Layout& str16(std::string_view s) { return u16(s.size()).raw(s); }

  const Bytes& wire() const { return wire_; }

  /// What a decoder reports on the first `len` bytes: the underrun at the
  /// first field that does not fit, or "" when every field fits.
  std::string underrun(std::size_t len) const {
    for (const auto& [offset, width] : fields_) {
      if (offset + width > len) {
        return "buffer underrun: need " + std::to_string(width) + " bytes at offset " +
               std::to_string(offset) + ", have " + std::to_string(len - offset);
      }
    }
    return "";
  }

 private:
  struct Field {
    std::size_t offset;
    std::size_t width;
  };

  Layout& uint(std::size_t width, std::uint64_t v) {
    fields_.push_back({wire_.size(), width});
    for (std::size_t i = width; i-- > 0;) wire_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  Bytes wire_;
  std::vector<Field> fields_;
};

Bytes random_bytes(Rng& rng, std::size_t max) {
  Bytes out(rng.below(max + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

std::span<const std::uint8_t> prefix(const Bytes& wire, std::size_t len) {
  return std::span<const std::uint8_t>(wire).first(len);
}

void expect_error(const Result<void>& got, Errc code, const std::string& message) {
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, code);
  EXPECT_EQ(got.error().message, message);
}

template <typename T>
Result<void> verdict(const Result<T>& r) {
  if (!r.ok()) return r.error();
  return ok_result();
}

/// A stream decode step gives nothing for every strict prefix and exactly
/// one frame, spanning the whole encoding, for the encoding itself.
template <typename Frame>
Frame step_all(Result<std::size_t> (*step)(std::span<const std::uint8_t>, std::vector<Frame>&),
               const Bytes& wire) {
  std::vector<Frame> out;
  // A strict prefix decodes nothing: the step returns 0, or the frame's full
  // length once its header is in, and then on every longer prefix.
  bool length_known = false;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    auto n = step(prefix(wire, len), out);
    const bool reports_length = n.ok() && n.value() == wire.size();
    EXPECT_TRUE(n.ok() && (n.value() == 0 || reports_length) && out.empty() &&
                (reports_length || !length_known))
        << "prefix " << len << "/" << wire.size();
    length_known = length_known || reports_length;
  }
  auto n = step(wire, out);
  EXPECT_TRUE(n.ok() && n.value() == wire.size());
  if (out.size() != 1) {
    ADD_FAILURE() << "decode step gave " << out.size() << " frames";
    return Frame{};
  }
  return std::move(out.front());
}

// --- UMTP ------------------------------------------------------------------------

MimeType random_mime(Rng& rng) {
  return MimeType(rng.ident(1 + rng.below(6)), rng.ident(1 + rng.below(8)));
}

core::PortRef random_port(Rng& rng) {
  return core::PortRef{TranslatorId(rng.next()), rng.ident(rng.below(9))};
}

void port_layout(Layout& l, const core::PortRef& port) {
  l.u64(port.translator.value()).str16(port.port);
}

Layout data_layout(const core::PortRef& dst, const core::Message& m) {
  Layout l;
  if (m.deadline_ns != 0) {
    l.u8(4).u64(static_cast<std::uint64_t>(m.deadline_ns));
  } else {
    l.u8(1);
  }
  port_layout(l, dst);
  l.str16(m.type.to_string()).u16(m.meta.size());
  for (const auto& [k, v] : m.meta) l.str16(k).str16(v);
  l.u32(m.payload.size()).raw(m.payload);
  return l;
}

/// Every field of a frame, in a form that compares with == and prints.
std::string fields_of(const umtp::Frame& frame) {
  std::ostringstream os;
  auto port = [&os](const core::PortRef& p) { os << ' ' << p.translator.value() << ':' << p.port; };
  if (const auto* d = std::get_if<umtp::DataFrame>(&frame)) {
    os << "DATA";
    port(d->dst);
    os << ' ' << d->message.type.to_string() << ' ' << d->message.deadline_ns << " ["
       << hex(d->message.payload) << ']';
    for (const auto& [k, v] : d->message.meta) os << ' ' << k << '=' << v;
  } else if (const auto* c = std::get_if<umtp::ConnectFrame>(&frame)) {
    os << "CONNECT " << c->path.value();
    port(c->src);
    if (const auto* fixed = std::get_if<core::PortRef>(&c->dst)) {
      port(*fixed);
    } else {
      os << ' ' << std::get<core::Query>(c->dst).to_xml().to_string();
    }
  } else if (const auto* disc = std::get_if<umtp::DisconnectFrame>(&frame)) {
    os << "DISCONNECT " << disc->path.value();
  } else if (const auto* ack = std::get_if<umtp::AckFrame>(&frame)) {
    os << "ACK " << ack->epoch << ' ' << ack->count;
  } else if (const auto* r = std::get_if<umtp::ResumeFrame>(&frame)) {
    os << "RESUME " << r->node.value() << ' ' << r->epoch << ' ' << r->prev_channel << ' '
       << r->base_seq;
  } else {
    const auto& seq = std::get<umtp::SeqFrame>(frame);
    os << "SEQ " << seq.seq << ' '
       << std::visit([](const auto& inner) { return fields_of(umtp::Frame{inner}); }, seq.frame);
  }
  return os.str();
}

/// The frame a SEQ may wrap, as the replayable frame its envelope carries.
umtp::ReplayedFrame replayed(const umtp::Frame& frame) {
  if (const auto* d = std::get_if<umtp::DataFrame>(&frame)) return *d;
  if (const auto* c = std::get_if<umtp::ConnectFrame>(&frame)) return *c;
  return std::get<umtp::DisconnectFrame>(frame);
}

/// One generated UMTP frame: its reference body layout, the frame it must
/// decode to, and (unless it is an ACK, which only the transport session
/// builds) the frame to encode.
struct UmtpCase {
  Layout body;
  std::string fields;
  std::optional<umtp::Frame> frame;
};

UmtpCase random_data(Rng& rng) {
  core::Message m;
  m.type = random_mime(rng);
  m.payload = random_bytes(rng, 40);
  for (std::size_t i = rng.below(4); i > 0; --i) {
    std::string key = rng.ident(1 + rng.below(4));
    m.meta[key] = rng.ident(rng.below(6));
  }
  if (rng.chance(0.5)) m.deadline_ns = static_cast<std::int64_t>(rng.between(1, 1ull << 62));
  const core::PortRef dst = random_port(rng);
  umtp::Frame frame{umtp::DataFrame{dst, m}};
  return {data_layout(dst, m), fields_of(frame), std::move(frame)};
}

UmtpCase random_connect(Rng& rng) {
  umtp::ConnectFrame c;
  c.path = PathId(rng.next());
  c.src = random_port(rng);
  Layout l;
  l.u8(2).u64(c.path.value());
  port_layout(l, c.src);
  if (rng.chance(0.5)) {
    const core::PortRef dst = random_port(rng);
    port_layout(l.u8(1), dst);
    c.dst = dst;
  } else {
    core::Query q;
    if (rng.chance(0.7)) q.digital_input(random_mime(rng));
    if (rng.chance(0.5)) q.digital_output(random_mime(rng));
    if (rng.chance(0.5)) q.platform(rng.ident(6));
    if (rng.chance(0.5)) q.name_contains(rng.ident(4));
    l.u8(2).str16(q.to_xml().to_string());
    c.dst = std::move(q);
  }
  umtp::Frame frame{std::move(c)};
  return {std::move(l), fields_of(frame), std::move(frame)};
}

UmtpCase random_disconnect(Rng& rng) {
  const std::uint64_t path = rng.next();
  umtp::Frame frame{umtp::DisconnectFrame{PathId(path)}};
  return {Layout().u8(3).u64(path), fields_of(frame), std::move(frame)};
}

UmtpCase random_control(Rng& rng) {
  const std::uint64_t a = rng.next(), b = rng.next(), c = rng.next(), d = rng.next();
  switch (rng.below(3)) {
    case 0:
      return random_disconnect(rng);
    case 1:
      return {Layout().u8(5).u64(a).u64(b), "ACK " + std::to_string(a) + ' ' + std::to_string(b),
              std::nullopt};
    default: {
      umtp::Frame frame{umtp::ResumeFrame{NodeId(a), b, c, d}};
      return {Layout().u8(6).u64(a).u64(b).u64(c).u64(d), fields_of(frame), std::move(frame)};
    }
  }
}

/// A SEQ frame around a replayable frame, and the inner frame's case.
std::pair<UmtpCase, UmtpCase> random_seq(Rng& rng) {
  const std::uint64_t pick = rng.below(5);
  UmtpCase inner = pick < 2 ? random_data(rng) : pick < 4 ? random_connect(rng)
                                                           : random_disconnect(rng);
  const std::uint64_t seq = rng.next();
  umtp::Frame frame{umtp::SeqFrame{seq, replayed(*inner.frame)}};
  UmtpCase outer{Layout().u8(7).u64(seq).raw(inner.body.wire()), fields_of(frame),
                 std::move(frame)};
  return {std::move(outer), std::move(inner)};
}

Bytes length_prefixed(const Bytes& body) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body);
  return w.take();
}

void check_umtp(const UmtpCase& c) {
  SCOPED_TRACE(c.fields);
  const Bytes& body = c.body.wire();
  const Bytes wire = length_prefixed(body);
  if (c.frame.has_value()) {
    EXPECT_EQ(umtp::encode(*c.frame), wire);
  }
  auto decoded = umtp::decode_body(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(fields_of(decoded.value()), c.fields);
  EXPECT_EQ(fields_of(step_all(&umtp::next_frame, wire)), c.fields);
}

TEST(CodecPropertyTest, UmtpFramesRoundTripAndMatchTheReferenceLayout) {
  Rng rng(0xC0DEC0DE0001ull);
  for (int i = 0; i < kCases; ++i) {
    check_umtp(random_data(rng));
    check_umtp(random_connect(rng));
    check_umtp(random_control(rng));
    auto [seq, inner] = random_seq(rng);
    check_umtp(seq);
    check_umtp(inner);
    EXPECT_EQ(umtp::encode_seq(std::get<umtp::SeqFrame>(*seq.frame).seq,
                               length_prefixed(inner.body.wire())),
              length_prefixed(seq.body.wire()));
  }
}

TEST(CodecPropertyTest, UmtpDataFramesEncodeStraightFromTheMessage) {
  Rng rng(0xC0DEC0DE0002ull);
  for (int i = 0; i < kCases; ++i) {
    UmtpCase c = random_data(rng);
    const auto& data = std::get<umtp::DataFrame>(*c.frame);
    core::Message message = data.message;
    const std::int64_t deadline = message.deadline_ns;
    message.deadline_ns = 0;  // encode_data's argument overrides the message's own
    EXPECT_EQ(umtp::encode_data(data.dst, message, deadline), length_prefixed(c.body.wire()));
  }
}

TEST(CodecPropertyTest, UmtpStrictPrefixesReportTheFirstMissingField) {
  Rng rng(0xC0DEC0DE0003ull);
  auto check_prefixes = [](const UmtpCase& c) {
    SCOPED_TRACE(c.fields);
    const Bytes& body = c.body.wire();
    for (std::size_t len = 0; len < body.size(); ++len) {
      expect_error(verdict(umtp::decode_body(prefix(body, len))), Errc::parse_error,
                   c.body.underrun(len));
    }
  };
  for (int i = 0; i < kCases; ++i) {
    check_prefixes(random_data(rng));
    check_prefixes(random_connect(rng));
    check_prefixes(random_control(rng));
    // A SEQ prefix that holds the sequence number decodes what it has of the
    // inner frame, so the underrun is the inner frame's.
    auto [seq, inner] = random_seq(rng);
    const Bytes& body = seq.body.wire();
    for (std::size_t len = 0; len < body.size(); ++len) {
      auto got = verdict(umtp::decode_body(prefix(body, len)));
      if (len < 9) {
        expect_error(got, Errc::parse_error, seq.body.underrun(len));
      } else if (len == 9) {
        expect_error(got, Errc::protocol_error, "empty SEQ body");
      } else {
        expect_error(got, Errc::parse_error, inner.body.underrun(len - 9));
      }
    }
  }
}

// The UMTP reader decodes each frame in place: every frame it hands on, fed
// whole or byte by byte, equals umtp::decode_body's, and every malformed body
// fails it with decode_body's error code.

Bytes data_with_meta(std::int64_t deadline_ns) {
  core::Message m = core::Message::text(MimeType::of("image/jpeg"), "pixels");
  m.meta["name"] = "photo.jpg";
  m.meta["origin"] = "lab-3";
  return umtp::encode_data(core::PortRef{TranslatorId(42), "photo-in"}, m, deadline_ns);
}

/// One wire frame of every replayable UMTP kind: DATA, DATA_DL, CONNECT to
/// a port and to a query, DISCONNECT.
std::vector<Bytes> every_replayable_kind() {
  core::Query query;
  query.digital_input(MimeType::of("image/*"));
  query.platform("upnp");
  const core::PortRef src{TranslatorId(3), "out"};
  return {
      data_with_meta(0),
      data_with_meta(5'000'000'000),
      umtp::encode(umtp::ConnectFrame{PathId(9), src, core::PortRef{TranslatorId(4), "in"}}),
      umtp::encode(umtp::ConnectFrame{PathId(10), src, std::move(query)}),
      umtp::encode(umtp::DisconnectFrame{PathId(11)}),
  };
}

/// One wire frame of every UMTP kind, each replayable one SEQ-wrapped too.
std::vector<Bytes> every_umtp_kind() {
  ByteWriter ack;  // only the transport builds an AckFrame; the test writes its bytes
  ack.u8(static_cast<std::uint8_t>(umtp::FrameType::ack));
  ack.u64(7);
  ack.u64(12);
  std::vector<Bytes> all = every_replayable_kind();
  all.push_back(length_prefixed(ack.take()));
  all.push_back(umtp::encode(umtp::ResumeFrame{NodeId(2), 5, 6, 7}));
  std::uint64_t seq = 77;
  for (const Bytes& inner : every_replayable_kind()) all.push_back(umtp::encode_seq(seq++, inner));
  return all;
}

/// The SEQ frame's inner frame as length-prefixed wire bytes: its body
/// follows the type byte and the u64 sequence number.
Bytes seq_inner(const Bytes& wire) {
  return length_prefixed(Bytes(wire.begin() + 4 + 1 + 8, wire.end()));
}

/// decode_body's verdict on a wire frame: its fields, or its error.
Result<std::string> decode_body_of(const Bytes& wire) {
  auto frame = umtp::decode_body(std::span(wire).subspan(4));
  if (!frame.ok()) return frame.error();
  return fields_of(frame.value());
}

/// The reader's verdict on `wire` fed in chunks of `chunk` bytes: the fields
/// of each frame it hands on, or the error that poisoned it.
Result<std::vector<std::string>> read_umtp(const Bytes& wire, std::size_t chunk) {
  umtp::Reader reader;
  std::vector<umtp::Frame> out;
  for (std::size_t at = 0; at < wire.size(); at += chunk) {
    const auto piece = std::span(wire).subspan(at, std::min(chunk, wire.size() - at));
    if (auto fed = reader.feed(piece, out); !fed.ok()) return fed.error();
  }
  std::vector<std::string> fields;
  for (const umtp::Frame& frame : out) fields.push_back(fields_of(frame));
  return fields;
}

TEST(CodecPropertyTest, UmtpReaderHandsOnDecodeBodysFrameWholeAndByteByByte) {
  Bytes all;
  std::vector<std::string> expected;
  std::size_t seqs = 0;
  for (const Bytes& wire : every_umtp_kind()) {
    const auto decoded = decode_body_of(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    if (wire[4] == static_cast<std::uint8_t>(umtp::FrameType::seq)) {
      // A SEQ carries its inner frame decoded, field by field as decode_body
      // decodes the inner body alone.
      ++seqs;
      const std::uint64_t seq = ByteReader(std::span(wire).subspan(5)).u64();
      const auto inner = decode_body_of(seq_inner(wire));
      ASSERT_TRUE(inner.ok()) << inner.error().to_string();
      EXPECT_EQ(decoded.value(), "SEQ " + std::to_string(seq) + ' ' + inner.value());
    }
    for (const std::size_t chunk : {wire.size(), std::size_t{1}}) {
      const auto read = read_umtp(wire, chunk);
      ASSERT_TRUE(read.ok()) << read.error().to_string();
      EXPECT_EQ(read.value(), std::vector<std::string>{decoded.value()}) << "chunk " << chunk;
    }
    all.insert(all.end(), wire.begin(), wire.end());
    expected.push_back(decoded.value());
  }
  for (const std::size_t chunk : {all.size(), std::size_t{1}}) {
    const auto read = read_umtp(all, chunk);
    ASSERT_TRUE(read.ok()) << read.error().to_string();
    EXPECT_EQ(read.value(), expected) << "chunk " << chunk;
  }
  EXPECT_EQ(seqs, every_replayable_kind().size());
}

/// `wire` with its last `n` bytes cut and its length prefix made to agree:
/// a complete frame whose body ends inside its fields.
Bytes cut_body(const Bytes& wire, std::size_t n) {
  return length_prefixed(Bytes(wire.begin() + 4, wire.end() - static_cast<std::ptrdiff_t>(n)));
}

TEST(CodecPropertyTest, UmtpReaderFailsMalformedBodiesWithDecodeBodysCode) {
  ByteWriter bad_kind;
  bad_kind.u8(static_cast<std::uint8_t>(umtp::FrameType::connect));
  bad_kind.u64(1);
  bad_kind.u64(2);
  bad_kind.str16("out");
  bad_kind.u8(3);
  const Bytes disconnect = umtp::encode(umtp::DisconnectFrame{PathId(11)});
  Bytes trailing(disconnect.begin() + 4, disconnect.end());
  trailing.push_back(0);
  core::Message untyped;
  const Bytes bad_mime = umtp::encode_data(core::PortRef{TranslatorId(1), "in"}, untyped);
  Bytes mime_without_slash(bad_mime.begin() + 4, bad_mime.end());
  mime_without_slash[1 + 8 + 2 + 2 + 2 + 1] = '-';  // "*/*" becomes "*-*"
  // A SEQ envelope around `inner`'s first byte, or around nothing.
  auto seq_around = [](std::optional<umtp::FrameType> inner) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(umtp::FrameType::seq));
    w.u64(1);
    if (inner.has_value()) w.u8(static_cast<std::uint8_t>(*inner));
    return length_prefixed(w.take());
  };
  // (wire, the code decode_body fails it with)
  const std::vector<std::pair<Bytes, Errc>> malformed = {
      {length_prefixed(Bytes{0x09}), Errc::protocol_error},
      {length_prefixed(bad_kind.take()), Errc::protocol_error},
      {length_prefixed(trailing), Errc::protocol_error},
      {length_prefixed(mime_without_slash), Errc::parse_error},
      {seq_around(std::nullopt), Errc::protocol_error},
      {seq_around(umtp::FrameType::ack), Errc::protocol_error},
      {seq_around(umtp::FrameType::resume), Errc::protocol_error},
      {seq_around(umtp::FrameType::seq), Errc::protocol_error},
      {cut_body(data_with_meta(0), 1), Errc::parse_error},
      {cut_body(data_with_meta(7), 10), Errc::parse_error},
      {cut_body(umtp::encode_seq(5, data_with_meta(0)), 3), Errc::parse_error},
  };
  for (const auto& [wire, code] : malformed) {
    const auto decoded = decode_body_of(wire);
    ASSERT_FALSE(decoded.ok()) << hex(wire);
    EXPECT_EQ(decoded.error().code, code) << decoded.error().to_string();
    for (const std::size_t chunk : {wire.size(), std::size_t{1}}) {
      const auto read = read_umtp(wire, chunk);
      ASSERT_FALSE(read.ok()) << hex(wire);
      EXPECT_EQ(read.error().code, decoded.error().code) << read.error().to_string();
    }
  }
}

TEST(CodecPropertyTest, UmtpReaderLeavesNoHalfDecodedFrameAfterAMalformedOne) {
  const Bytes valid = data_with_meta(0);
  const Bytes truncated = cut_body(data_with_meta(3), 4);
  Bytes chunk = valid;
  chunk.insert(chunk.end(), truncated.begin(), truncated.end());
  umtp::Reader reader;
  std::vector<umtp::Frame> out;
  const auto fed = reader.feed(chunk, out);
  ASSERT_FALSE(fed.ok());
  EXPECT_TRUE(reader.poisoned());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(fields_of(out[0]), decode_body_of(valid).value());
  EXPECT_FALSE(reader.feed(valid, out).ok());
  EXPECT_EQ(out.size(), 1u);

  // The decode step alone appends nothing for a malformed frame.
  std::vector<umtp::Frame> step_out;
  EXPECT_FALSE(umtp::next_frame(truncated, step_out).ok());
  EXPECT_TRUE(step_out.empty());
}

/// A DATA frame whose MIME text is `mime` byte for byte: encode_data writes
/// only the lowercase text of a parsed MimeType.
Bytes data_typed(std::string_view mime) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(umtp::FrameType::data));
  w.u64(42);
  w.str16("in");
  w.str16(mime);
  w.u16(0);
  w.u32(1);
  w.u8(0xAB);
  return length_prefixed(w.take());
}

// The reader parses a MIME text only when it differs from the last one: the
// memo is compared on the exact bytes, so a type of the same length, or the
// same type in other case, is parsed again, and a malformed one still fails.
TEST(CodecPropertyTest, UmtpReaderTypesEachDataFrameAsMimeTypeParseDoes) {
  const std::vector<std::string_view> types = {"image/png", "image/gif", "Image/JPEG",
                                               "image/jpeg"};
  Bytes link;
  for (const std::string_view type : types) {
    const Bytes wire = data_typed(type);
    link.insert(link.end(), wire.begin(), wire.end());
  }
  const Bytes slashless = data_typed("imagejpeg");
  link.insert(link.end(), slashless.begin(), slashless.end());
  umtp::Reader reader;
  std::vector<umtp::Frame> out;
  const auto fed = reader.feed(link, out);
  ASSERT_FALSE(fed.ok());
  EXPECT_EQ(fed.error().code, Errc::parse_error);
  EXPECT_TRUE(reader.poisoned());
  ASSERT_EQ(out.size(), types.size());
  for (std::size_t i = 0; i < types.size(); ++i) {
    EXPECT_EQ(std::get<umtp::DataFrame>(out[i]).message.type, MimeType::parse(types[i]).value())
        << types[i];
  }
}

// --- OBEX ------------------------------------------------------------------------

obex::Packet random_packet(Rng& rng) {
  obex::Packet p;
  if (rng.chance(0.2)) {
    p.opcode = obex::kOpConnect;
    p.max_packet = static_cast<std::uint16_t>(rng.next());
  } else {
    const std::uint8_t opcodes[] = {obex::kOpPut, obex::kOpPutFinal, obex::kOpGetFinal,
                                    obex::kOpDisconnect, obex::kRespContinue, obex::kRespSuccess};
    p.opcode = opcodes[rng.below(std::size(opcodes))];
  }
  for (std::size_t i = rng.below(5); i > 0; --i) {
    switch (rng.below(3)) {
      case 0:
        p.headers.push_back(obex::Header::text(obex::kHdrName, rng.ident(rng.below(12))));
        break;
      case 1: {
        const std::uint8_t ids[] = {obex::kHdrType, obex::kHdrBody, obex::kHdrEndOfBody};
        p.headers.push_back(obex::Header::bytes(ids[rng.below(3)], random_bytes(rng, 40)));
        break;
      }
      default:
        p.headers.push_back(obex::Header::u32(rng.chance(0.5) ? obex::kHdrLength
                                                              : obex::kHdrConnectionId,
                                              static_cast<std::uint32_t>(rng.next())));
        break;
    }
  }
  return p;
}

Layout packet_layout(const obex::Packet& p) {
  std::size_t length = 3 + (p.max_packet.has_value() ? 4 : 0);
  for (const obex::Header& h : p.headers) {
    if (const auto* s = std::get_if<std::string>(&h.value)) length += 3 + s->size();
    if (const auto* b = std::get_if<Bytes>(&h.value)) length += 3 + b->size();
    if (std::holds_alternative<std::uint32_t>(h.value)) length += 5;
  }
  Layout l;
  l.u8(p.opcode).u16(length);
  if (p.max_packet.has_value()) l.u8(0x10).u8(0).u16(*p.max_packet);
  for (const obex::Header& h : p.headers) {
    l.u8(h.id);
    if (const auto* s = std::get_if<std::string>(&h.value)) l.u16(3 + s->size()).raw(*s);
    if (const auto* b = std::get_if<Bytes>(&h.value)) l.u16(3 + b->size()).raw(*b);
    if (const auto* v = std::get_if<std::uint32_t>(&h.value)) l.u32(*v);
  }
  return l;
}

std::string fields_of(const obex::Packet& p) {
  std::ostringstream os;
  os << int(p.opcode) << ' ' << (p.max_packet ? int(*p.max_packet) : -1);
  for (const obex::Header& h : p.headers) {
    os << " #" << int(h.id);
    if (const auto* s = std::get_if<std::string>(&h.value)) os << " '" << *s << '\'';
    if (const auto* b = std::get_if<Bytes>(&h.value)) os << " [" << hex(*b) << ']';
    if (const auto* v = std::get_if<std::uint32_t>(&h.value)) os << ' ' << *v;
  }
  return os.str();
}

TEST(CodecPropertyTest, ObexPacketsRoundTripAndTruncationsFailAtTheLength) {
  Rng rng(0xC0DEC0DE0004ull);
  for (int i = 0; i < kCases; ++i) {
    const obex::Packet p = random_packet(rng);
    SCOPED_TRACE(fields_of(p));
    const Layout l = packet_layout(p);
    const Bytes& wire = l.wire();
    EXPECT_EQ(p.encode(), wire);
    auto decoded = obex::decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(fields_of(decoded.value()), fields_of(p));
    EXPECT_EQ(fields_of(step_all(&obex::next_packet, wire)), fields_of(p));
    for (std::size_t len = 0; len < wire.size(); ++len) {
      auto got = verdict(obex::decode(prefix(wire, len)));
      if (len < 3) {
        expect_error(got, Errc::parse_error, l.underrun(len));
      } else {
        expect_error(got, Errc::protocol_error, "obex: length mismatch");
      }
    }
  }
}

// --- MediaBroker -----------------------------------------------------------------

std::string fields_of(const mb::Frame& f) {
  return std::to_string(static_cast<int>(f.op)) + ' ' + f.stream + ' ' + f.media_type + " [" +
         hex(f.payload) + ']';
}

TEST(CodecPropertyTest, MbFramesOfEveryOpRoundTrip) {
  Rng rng(0xC0DEC0DE0005ull);
  for (int i = 0; i < kCases; ++i) {
    for (int op = 1; op <= 6; ++op) {
      mb::Frame f;
      f.op = static_cast<mb::Op>(op);
      f.stream = rng.ident(rng.below(10));
      Layout l;
      l.u8(op).str16(f.stream);
      if (f.op == mb::Op::produce || f.op == mb::Op::announce) {
        f.media_type = random_mime(rng).to_string();
        l.str16(f.media_type);
      } else if (f.op == mb::Op::data) {
        f.payload = random_bytes(rng, 60);
        l.u32(f.payload.size()).raw(f.payload);
      }
      SCOPED_TRACE(fields_of(f));
      EXPECT_EQ(f.encode(), l.wire());
      EXPECT_EQ(fields_of(step_all(&mb::next_frame, l.wire())), fields_of(f));
    }
  }
}

// --- RMI -------------------------------------------------------------------------

TEST(CodecPropertyTest, RmiCallsAndReturnsRoundTrip) {
  Rng rng(0xC0DEC0DE0006ull);
  for (int i = 0; i < kCases; ++i) {
    const rmi::Call call{rng.ident(rng.below(8)), rng.ident(rng.below(8)), random_bytes(rng, 60)};
    Layout cl;
    cl.raw("JRMI").u8(0x50).str16(call.object).str16(call.method).u16(rmi::kSerializationOverhead);
    Bytes descriptors;
    for (std::size_t j = 0; j < rmi::kSerializationOverhead; ++j) {
      descriptors.push_back(static_cast<std::uint8_t>(0x70 + j % 16));
    }
    cl.raw(descriptors).u32(call.args.size()).raw(call.args);
    EXPECT_EQ(rmi::encode_call(call), cl.wire());
    const rmi::Call got_call = step_all(&rmi::next_call, cl.wire());
    EXPECT_EQ(got_call.object, call.object);
    EXPECT_EQ(got_call.method, call.method);
    EXPECT_EQ(got_call.args, call.args);

    const rmi::Return ret{rng.chance(0.3), random_bytes(rng, 60)};
    Layout rl;
    rl.raw("JRMI").u8(ret.exception ? 0x52 : 0x51).u32(ret.value.size()).raw(ret.value);
    EXPECT_EQ(rmi::encode_return(ret), rl.wire());
    const rmi::Return got_ret = step_all(&rmi::next_return, rl.wire());
    EXPECT_EQ(got_ret.exception, ret.exception);
    EXPECT_EQ(got_ret.value, ret.value);
  }
}

// --- SDP -------------------------------------------------------------------------

std::string fields_of(const bt::SdpRecord& r) {
  return std::to_string(r.handle) + ' ' + r.service_uuid + ' ' + r.name + ' ' +
         std::to_string(r.psm) + ' ' + r.profile;
}

std::string fields_of(const bt::SdpResponse& r) {
  std::string out = std::to_string(r.pdu) + ' ' + std::to_string(r.tx) + ' ' +
                    std::to_string(r.error);
  for (const bt::SdpRecord& rec : r.records) out += " {" + fields_of(rec) + '}';
  return out;
}

TEST(CodecPropertyTest, SdpRequestsResponsesAndErrorsRoundTrip) {
  Rng rng(0xC0DEC0DE0007ull);
  for (int i = 0; i < kCases; ++i) {
    bt::SdpRequest req{bt::kSdpSearchRequest, static_cast<std::uint16_t>(rng.next()),
                       rng.ident(rng.below(8))};
    if (rng.chance(0.2)) {
      req.pdu = 0x02;  // another request PDU: header only
      req.uuid.clear();
    }
    Layout ql;
    ql.u8(req.pdu).u16(req.tx);
    if (req.pdu == bt::kSdpSearchRequest) ql.str16(req.uuid);
    EXPECT_EQ(req.encode(), ql.wire());
    const bt::SdpRequest got_req = step_all(&bt::next_request, ql.wire());
    EXPECT_EQ(got_req.pdu, req.pdu);
    EXPECT_EQ(got_req.tx, req.tx);
    EXPECT_EQ(got_req.uuid, req.uuid);

    bt::SdpResponse resp;
    resp.tx = static_cast<std::uint16_t>(rng.next());
    Layout rl;
    if (rng.chance(0.3)) {
      resp.pdu = bt::kSdpError;
      resp.error = static_cast<std::uint16_t>(rng.next());
      rl.u8(resp.pdu).u16(resp.tx).u16(resp.error);
    } else {
      for (std::size_t n = rng.below(4); n > 0; --n) {
        resp.records.push_back(bt::SdpRecord{static_cast<std::uint32_t>(rng.next()),
                                             rng.ident(6), rng.ident(rng.below(10)),
                                             static_cast<std::uint16_t>(rng.next()),
                                             rng.ident(3)});
      }
      rl.u8(resp.pdu).u16(resp.tx).u16(resp.records.size());
      for (const bt::SdpRecord& rec : resp.records) {
        rl.u32(rec.handle).str16(rec.service_uuid).str16(rec.name).u16(rec.psm).str16(rec.profile);
      }
    }
    SCOPED_TRACE(fields_of(resp));
    EXPECT_EQ(resp.encode(), rl.wire());
    EXPECT_EQ(fields_of(step_all(&bt::next_response, rl.wire())), fields_of(resp));
  }
}

// --- motes Active Messages -------------------------------------------------------

TEST(CodecPropertyTest, MotesReadingsRoundTripAndTruncationsReportTheMissingField) {
  Rng rng(0xC0DEC0DE0008ull);
  for (int i = 0; i < kCases; ++i) {
    const motes::Reading reading{static_cast<std::uint16_t>(rng.next()),
                                 static_cast<motes::SensorKind>(rng.between(1, 3)),
                                 static_cast<std::uint16_t>(rng.next()),
                                 static_cast<std::uint16_t>(rng.next())};
    Layout l;
    l.u16(motes::kAmTelemetry).u16(reading.mote_id).u8(static_cast<std::uint8_t>(reading.kind));
    l.u16(reading.value).u16(reading.sequence);
    EXPECT_EQ(reading.encode(), l.wire());
    auto back = motes::Reading::decode(l.wire());
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value().mote_id, reading.mote_id);
    EXPECT_EQ(back.value().kind, reading.kind);
    EXPECT_EQ(back.value().value, reading.value);
    EXPECT_EQ(back.value().sequence, reading.sequence);
    for (std::size_t len = 0; len < l.wire().size(); ++len) {
      expect_error(verdict(motes::Reading::decode(prefix(l.wire(), len))), Errc::parse_error,
                   l.underrun(len));
    }
  }
}

// --- exact-size frames -------------------------------------------------------------

/// `wire` matches its reference layout and was built in one buffer of its
/// exact size. An over-counted size leaves spare capacity; an under-counted
/// one regrows the buffer, which leaves spare capacity too unless the grown
/// buffer happens to fit exactly, and across the varied sizes here it cannot
/// for every case.
void expect_exact(const Bytes& wire, const Bytes& reference, const std::string& what) {
  EXPECT_EQ(wire, reference) << what;
  EXPECT_EQ(wire.capacity(), wire.size()) << what << " was not built at its exact size";
}

/// The kind of a UMTP frame, for the coverage check.
std::string umtp_kind(const umtp::Frame& frame) {
  if (const auto* d = std::get_if<umtp::DataFrame>(&frame)) {
    return d->message.deadline_ns != 0 ? "DATA_DL" : "DATA";
  }
  if (const auto* c = std::get_if<umtp::ConnectFrame>(&frame)) {
    return std::holds_alternative<core::PortRef>(c->dst) ? "CONNECT fixed" : "CONNECT query";
  }
  const char* const names[] = {"", "", "DISCONNECT", "ACK", "RESUME", "SEQ"};
  return names[frame.index()];
}

TEST(CodecPropertyTest, FramesAreBuiltInOneBufferOfTheirExactSize) {
  Rng rng(0xC0DEC0DE0009ull);
  std::set<std::string> seen;
  auto check_umtp_exact = [&seen](const UmtpCase& c) {
    const Bytes& body = c.body.wire();
    // An ACK is built only by the transport session, so it is re-encoded
    // from its decoded frame; every other frame from the generated one too.
    auto decoded = umtp::decode_body(body);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    const std::string kind = umtp_kind(decoded.value());
    seen.insert(kind);
    expect_exact(umtp::encode(decoded.value()), length_prefixed(body), kind + " " + c.fields);
    if (c.frame.has_value()) {
      expect_exact(umtp::encode(*c.frame), length_prefixed(body), kind + " " + c.fields);
    }
  };
  for (int i = 0; i < kCases; ++i) {
    UmtpCase data = random_data(rng);
    auto frame = std::get<umtp::DataFrame>(*data.frame);
    frame.message.meta[rng.ident(3)] = rng.ident(rng.below(5));
    for (const std::int64_t deadline :
         {std::int64_t{0}, static_cast<std::int64_t>(rng.between(1, 1ull << 62))}) {
      frame.message.deadline_ns = deadline;
      const Bytes body = data_layout(frame.dst, frame.message).wire();
      const std::string kind = umtp_kind(umtp::Frame{frame}) + " with meta";
      seen.insert(kind);
      expect_exact(umtp::encode(umtp::Frame{frame}), length_prefixed(body), kind);
      expect_exact(umtp::encode_data(frame.dst, frame.message, deadline), length_prefixed(body),
                   "encode_data " + kind);
    }
    check_umtp_exact(data);
    check_umtp_exact(random_connect(rng));
    check_umtp_exact(random_control(rng));
    auto [seq, inner] = random_seq(rng);
    check_umtp_exact(seq);
    expect_exact(umtp::encode_seq(std::get<umtp::SeqFrame>(*seq.frame).seq,
                                  length_prefixed(inner.body.wire())),
                 length_prefixed(seq.body.wire()), "encode_seq " + seq.fields);

    for (int op = 1; op <= 6; ++op) {
      mb::Frame f;
      f.op = static_cast<mb::Op>(op);
      f.stream = rng.ident(rng.below(10));
      Layout l;
      l.u8(op).str16(f.stream);
      if (f.op == mb::Op::produce || f.op == mb::Op::announce) {
        f.media_type = random_mime(rng).to_string();
        l.str16(f.media_type);
      } else if (f.op == mb::Op::data) {
        f.payload = random_bytes(rng, 60);
        l.u32(f.payload.size()).raw(f.payload);
        expect_exact(mb::encode_data(f.stream, f.payload), l.wire(), "MB encode_data");
      }
      seen.insert("MB op " + std::to_string(op));
      expect_exact(f.encode(), l.wire(), "MB " + fields_of(f));
    }

    const obex::Packet p = random_packet(rng);
    seen.insert(p.max_packet.has_value() ? "OBEX with max_packet" : "OBEX without max_packet");
    for (const obex::Header& h : p.headers) {
      seen.insert(std::holds_alternative<std::string>(h.value) ? "OBEX text header"
                  : std::holds_alternative<Bytes>(h.value)     ? "OBEX bytes header"
                                                               : "OBEX u32 header");
    }
    expect_exact(p.encode(), packet_layout(p).wire(), "OBEX " + fields_of(p));
  }
  const std::set<std::string> every_kind = {
      "DATA", "DATA_DL", "DATA with meta", "DATA_DL with meta", "CONNECT fixed",
      "CONNECT query", "DISCONNECT", "ACK", "RESUME", "SEQ", "MB op 1", "MB op 2", "MB op 3",
      "MB op 4", "MB op 5", "MB op 6", "OBEX with max_packet", "OBEX without max_packet",
      "OBEX text header", "OBEX bytes header", "OBEX u32 header"};
  EXPECT_EQ(seen, every_kind);
}

}  // namespace
}  // namespace umiddle
