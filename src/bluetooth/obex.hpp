// OBEX — the IrDA object-exchange protocol Bluetooth BIP runs on (paper §3.2:
// "the BIP Translator implements the OBEX protocol using the base-protocol
// support provided by the Bluetooth mapper").
//
// Packet format: opcode u8, packet-length u16 (includes the 3-byte prefix),
// then headers. CONNECT carries version/flags/max-packet before the headers.
// Headers follow the OBEX encoding classes: 0x4x = length-prefixed byte
// sequence, 0xCx = 4-byte value, 0x0x = length-prefixed text.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/frame_reader.hpp"
#include "netsim/stream.hpp"

namespace umiddle::bt::obex {

// Opcodes (high bit = final packet of the operation).
constexpr std::uint8_t kOpConnect = 0x80;
constexpr std::uint8_t kOpDisconnect = 0x81;
constexpr std::uint8_t kOpPut = 0x02;
constexpr std::uint8_t kOpPutFinal = 0x82;
constexpr std::uint8_t kOpGetFinal = 0x83;
// Response codes.
constexpr std::uint8_t kRespContinue = 0x90;
constexpr std::uint8_t kRespSuccess = 0xA0;
constexpr std::uint8_t kRespBadRequest = 0xC0;
constexpr std::uint8_t kRespNotFound = 0xC4;

// Header ids.
constexpr std::uint8_t kHdrName = 0x01;         // text
constexpr std::uint8_t kHdrType = 0x42;         // bytes
constexpr std::uint8_t kHdrBody = 0x48;         // bytes
constexpr std::uint8_t kHdrEndOfBody = 0x49;    // bytes
constexpr std::uint8_t kHdrLength = 0xC3;       // u32
constexpr std::uint8_t kHdrConnectionId = 0xCB; // u32

struct Header {
  std::uint8_t id = 0;
  std::variant<std::string, Bytes, std::uint32_t> value;

  static Header text(std::uint8_t id, std::string v) { return {id, std::move(v)}; }
  static Header bytes(std::uint8_t id, Bytes v) { return {id, std::move(v)}; }
  static Header u32(std::uint8_t id, std::uint32_t v) { return {id, v}; }
};

struct Packet {
  std::uint8_t opcode = 0;
  /// CONNECT-only fields (version 1.0, flags 0, max packet size).
  std::optional<std::uint16_t> max_packet;
  std::vector<Header> headers;

  const Header* header(std::uint8_t id) const;
  std::string text(std::uint8_t id) const;
  Bytes body() const;  ///< concatenated Body + EndOfBody headers
  /// Moves the Body + EndOfBody bytes onto the end of `out`. The first header
  /// moves whole into an empty `out`, so a lone body is never copied.
  void move_body_into(Bytes& out);

  Bytes encode() const;
};

/// Decode one complete packet. Exposed for tests.
[[nodiscard]] Result<Packet> decode(std::span<const std::uint8_t> wire);

/// Decode step for the packet at the front of a receive buffer; an
/// incomplete packet whose length field is in reports that full length.
[[nodiscard]] Result<std::size_t> next_packet(std::span<const std::uint8_t> buffer,
                                              std::vector<Packet>& out);

/// Reassembles packets from stream chunks using the length field.
using PacketReader = FrameReader<Packet, next_packet>;

/// An object transferred by PUT/GET.
struct Object {
  std::string name;
  std::string type;
  Bytes data;
};

/// OBEX server half of a session: accepts CONNECT, assembles PUTs, serves GETs.
class Server {
 public:
  /// Takes the assembled object: its bytes move on instead of being copied.
  using PutHandler = std::function<void(Object)>;
  /// Return the object to serve, or an error → OBEX NotFound.
  using GetHandler = std::function<Result<Object>(const std::string& type,
                                                  const std::string& name)>;

  Server(PutHandler on_put, GetHandler on_get)
      : on_put_(std::move(on_put)), on_get_(std::move(on_get)) {}

  /// Wire this server to an accepted L2CAP stream.
  void attach(net::StreamPtr stream);

 private:
  /// One connection's operation in progress.
  struct Session {
    Object object;  ///< the PUT being assembled, or the GET being served
    std::optional<std::size_t> served;  ///< GET body bytes sent; set while serving
  };

  void handle(net::Stream& stream, Packet& packet, Session& session);

  PutHandler on_put_;
  GetHandler on_get_;
};

/// One-shot OBEX client operations over a fresh L2CAP channel, each a
/// net::Exchange. (Real BIP keeps sessions open; one-connection-per-operation
/// keeps the emulation simple and still exercises the full packet flow.)
/// A failed connect resolves `done` at once with the connect error.
class Client {
 public:
  using DoneFn = std::function<void(Result<void>)>;
  using GetFn = std::function<void(Result<Object>)>;

  /// CONNECT, PUT the object (chunked to the OBEX packet budget), DISCONNECT.
  static void put(Result<net::StreamPtr> stream, Object object, DoneFn done);
  /// CONNECT, GET by type/name, DISCONNECT.
  static void get(Result<net::StreamPtr> stream, std::string type, std::string name,
                  GetFn done);
};

}  // namespace umiddle::bt::obex
