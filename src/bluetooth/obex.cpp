#include "bluetooth/obex.hpp"

#include <algorithm>

#include "netsim/exchange.hpp"

namespace umiddle::bt::obex {
namespace {

constexpr std::uint16_t kMaxPacket = 0xFFFF;
/// Body bytes carried per PUT/GET response packet.
constexpr std::size_t kChunk = 32000;

enum class HeaderClass { text, bytes, u32 };

HeaderClass header_class(std::uint8_t id) {
  switch (id >> 6) {
    case 0: return HeaderClass::text;
    case 1: return HeaderClass::bytes;
    default: return HeaderClass::u32;
  }
}

}  // namespace

const Header* Packet::header(std::uint8_t id) const {
  for (const Header& h : headers) {
    if (h.id == id) return &h;
  }
  return nullptr;
}

std::string Packet::text(std::uint8_t id) const {
  const Header* h = header(id);
  if (h == nullptr) return {};
  if (const auto* s = std::get_if<std::string>(&h->value)) return *s;
  if (const auto* b = std::get_if<Bytes>(&h->value)) return umiddle::to_string(*b);
  return {};
}

Bytes Packet::body() const {
  Bytes out;
  for (const Header& h : headers) {
    if (h.id != kHdrBody && h.id != kHdrEndOfBody) continue;
    const auto* b = std::get_if<Bytes>(&h.value);
    if (b != nullptr) out.insert(out.end(), b->begin(), b->end());
  }
  return out;
}

void Packet::move_body_into(Bytes& out) {
  for (Header& h : headers) {
    if (h.id != kHdrBody && h.id != kHdrEndOfBody) continue;
    auto* b = std::get_if<Bytes>(&h.value);
    if (b == nullptr) continue;
    if (out.empty()) {
      out = std::move(*b);
    } else {
      out.insert(out.end(), b->begin(), b->end());
    }
  }
}

Bytes Packet::encode() const {
  std::size_t length = 3 + (max_packet.has_value() ? 4 : 0);
  for (const Header& h : headers) {
    switch (header_class(h.id)) {
      case HeaderClass::text: length += 3 + std::get<std::string>(h.value).size(); break;
      case HeaderClass::bytes: length += 3 + std::get<Bytes>(h.value).size(); break;
      case HeaderClass::u32: length += 5; break;
    }
  }
  ByteWriter out(length);
  out.u8(opcode);
  out.u16(static_cast<std::uint16_t>(length));
  if (max_packet.has_value()) {
    out.u8(0x10);  // OBEX version 1.0
    out.u8(0x00);  // flags
    out.u16(*max_packet);
  }
  for (const Header& h : headers) {
    out.u8(h.id);
    switch (header_class(h.id)) {
      case HeaderClass::text: {
        const auto& s = std::get<std::string>(h.value);
        out.u16(static_cast<std::uint16_t>(s.size() + 3));
        out.str(s);
        break;
      }
      case HeaderClass::bytes: {
        const auto& b = std::get<Bytes>(h.value);
        out.u16(static_cast<std::uint16_t>(b.size() + 3));
        out.bytes(b);
        break;
      }
      case HeaderClass::u32:
        out.u32(std::get<std::uint32_t>(h.value));
        break;
    }
  }
  return out.take();
}

Result<Packet> decode(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  Packet p;
  p.opcode = r.u8();
  const std::uint16_t length = r.u16();
  if (!r.ok()) return r.error();
  if (length != wire.size()) return make_error(Errc::protocol_error, "obex: length mismatch");
  if (p.opcode == kOpConnect) {
    r.skip(2);  // version, flags
    p.max_packet = r.u16();
    if (!r.ok()) return make_error(Errc::protocol_error, "obex: truncated CONNECT");
  }
  while (!r.at_end()) {
    Header h{r.u8(), {}};
    const HeaderClass cls = header_class(h.id);
    if (cls == HeaderClass::u32) {
      h.value = r.u32();
    } else {
      const std::uint16_t len = r.u16();
      if (!r.ok()) return r.error();
      if (len < 3) return make_error(Errc::protocol_error, "obex: bad header length");
      if (cls == HeaderClass::text) {
        h.value = r.str(len - 3);
      } else {
        h.value = r.bytes(len - 3);
      }
    }
    p.headers.push_back(std::move(h));
  }
  if (!r.ok()) return r.error();
  return p;
}

Result<std::size_t> next_packet(std::span<const std::uint8_t> buffer, std::vector<Packet>& out) {
  ByteReader r(buffer);
  r.skip(1);  // opcode
  const std::size_t length = r.u16();
  if (!r.ok()) return 0;
  if (length < 3) return make_error(Errc::protocol_error, "obex: bad packet length");
  if (buffer.size() < length) return length;  // incomplete: its full length
  auto packet = decode(buffer.first(length));
  if (!packet.ok()) return packet.error();
  out.push_back(std::move(packet).take());
  return length;
}

// --- Server ---------------------------------------------------------------------------

void Server::attach(net::StreamPtr stream) {
  stream->on_data(net::frames<PacketReader>(
      *stream, [this, session = Session{}, keep = stream](Packet& p) mutable {
        handle(*keep, p, session);
      }));
}

void Server::handle(net::Stream& stream, Packet& packet, Session& session) {
  Packet resp;
  switch (packet.opcode) {
    case kOpConnect:
      // (The real CONNECT response also carries version/flags/max-packet; our
      // decoder keys those fields off the CONNECT opcode, so the emulation
      // conveys capability via headers only.)
      resp.opcode = kRespSuccess;
      resp.headers.push_back(Header::u32(kHdrConnectionId, 1));
      break;
    case kOpDisconnect:
      resp.opcode = kRespSuccess;
      (void)stream.send(resp.encode());
      stream.close();
      return;
    case kOpPut:
    case kOpPutFinal: {
      Object& partial = session.object;
      if (std::string name = packet.text(kHdrName); !name.empty()) partial.name = name;
      if (std::string type = packet.text(kHdrType); !type.empty()) partial.type = type;
      packet.move_body_into(partial.data);
      if (packet.opcode == kOpPutFinal) {
        Object object = std::move(partial);
        session = Session{};
        if (on_put_) on_put_(std::move(object));
        resp.opcode = kRespSuccess;
      } else {
        resp.opcode = kRespContinue;
      }
      break;
    }
    case kOpGetFinal: {
      if (!session.served) {
        // First GET of the operation: look the object up.
        if (!on_get_) {
          resp.opcode = kRespNotFound;
          break;
        }
        auto object = on_get_(packet.text(kHdrType), packet.text(kHdrName));
        if (!object.ok()) {
          resp.opcode = kRespNotFound;
          break;
        }
        session.object = std::move(object).take();
        session.served = 0;
      }
      // Serve the next chunk.
      const Bytes& data = session.object.data;
      const std::size_t from = *session.served;
      const std::size_t n = std::min(kChunk, data.size() - from);
      Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(from),
                  data.begin() + static_cast<std::ptrdiff_t>(from + n));
      session.served = from + n;
      if (from + n == data.size()) {
        resp.opcode = kRespSuccess;
        resp.headers.push_back(Header::text(kHdrName, session.object.name));
        resp.headers.push_back(Header::bytes(kHdrEndOfBody, std::move(chunk)));
        session = Session{};
      } else {
        resp.opcode = kRespContinue;
        resp.headers.push_back(Header::bytes(kHdrBody, std::move(chunk)));
      }
      break;
    }
    default:
      resp.opcode = kRespBadRequest;
      break;
  }
  (void)stream.send(resp.encode());
}

// --- Client ----------------------------------------------------------------------------

namespace {

/// PUT: the object goes out in kChunk pieces, one per Continue.
struct PutOperation {
  Object object;
  std::size_t offset = 0;

  Bytes next() {
    Packet p;
    const std::size_t size = object.data.size();
    const std::size_t n = std::min(kChunk, size - offset);
    const bool final = offset + n >= size;
    if (offset == 0) {
      p.headers.push_back(Header::text(kHdrName, object.name));
      p.headers.push_back(Header::bytes(kHdrType, to_bytes(object.type)));
      p.headers.push_back(Header::u32(kHdrLength, static_cast<std::uint32_t>(size)));
    }
    // A single-chunk object is its own body: it moves into the header. A
    // larger one is sliced, and stays whole until its last chunk is out.
    Bytes chunk = offset == 0 && final
                      ? std::move(object.data)
                      : Bytes(object.data.begin() + static_cast<std::ptrdiff_t>(offset),
                              object.data.begin() + static_cast<std::ptrdiff_t>(offset + n));
    p.opcode = final ? kOpPutFinal : kOpPut;
    p.headers.push_back(Header::bytes(final ? kHdrEndOfBody : kHdrBody, std::move(chunk)));
    offset += n;
    return p.encode();
  }

  net::Exchange<void>::Reply respond(const Packet& p) const {
    if (p.opcode == kRespContinue) return std::nullopt;
    if (p.opcode == kRespSuccess) return ok_result();
    return make_error(Errc::refused, "obex: PUT rejected");
  }
};

/// GET: the same request repeats until the body is complete.
struct GetOperation {
  std::string type;
  std::string name;
  Object assembled;

  Bytes next() const {
    Packet p;
    p.opcode = kOpGetFinal;
    p.headers.push_back(Header::bytes(kHdrType, to_bytes(type)));
    if (!name.empty()) p.headers.push_back(Header::text(kHdrName, name));
    return p.encode();
  }

  net::Exchange<Object>::Reply respond(Packet& p) {
    if (p.opcode != kRespContinue && p.opcode != kRespSuccess) {
      return make_error(Errc::not_found, "obex: GET failed");
    }
    p.move_body_into(assembled.data);
    if (p.opcode == kRespContinue) return std::nullopt;
    if (std::string n = p.text(kHdrName); !n.empty()) assembled.name = n;
    assembled.type = type;
    return std::move(assembled);
  }
};

Bytes packet_with(std::uint8_t opcode, std::optional<std::uint16_t> max_packet = {}) {
  Packet p;
  p.opcode = opcode;
  p.max_packet = max_packet;
  return p.encode();
}

/// The CONNECT/DISCONNECT handshake both operations share: CONNECT once the
/// channel is up, the operation's first request on the CONNECT response and
/// its next one on every response it leaves open; DISCONNECT after success.
template <typename T, typename Operation>
void run(Result<net::StreamPtr> stream, Operation op, std::function<void(Result<T>)> done) {
  net::Exchange<T>::template run<PacketReader>(
      std::move(stream), make_payload(packet_with(kOpConnect, kMaxPacket)),
      [op = std::move(op), connected = false](
          net::Stream& s, Packet& p) mutable -> typename net::Exchange<T>::Reply {
        if (connected) {
          if (auto result = op.respond(p)) return result;
        } else if (p.opcode != kRespSuccess) {
          return make_error(Errc::refused, "obex: CONNECT refused");
        }
        connected = true;
        (void)s.send(op.next());
        return std::nullopt;
      },
      std::move(done), make_payload(packet_with(kOpDisconnect)));
}

}  // namespace

void Client::put(Result<net::StreamPtr> stream, Object object, DoneFn done) {
  run<void>(std::move(stream), PutOperation{std::move(object)}, std::move(done));
}

void Client::get(Result<net::StreamPtr> stream, std::string type, std::string name,
                 GetFn done) {
  run<Object>(std::move(stream), GetOperation{std::move(type), std::move(name), {}},
              std::move(done));
}

}  // namespace umiddle::bt::obex
