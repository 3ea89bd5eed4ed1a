// UMTP — the uMiddle transport protocol (binary, over a reliable stream).
//
// Inter-node frames carry either data for a translator port or path-management
// control (paper §3.2: "the uMiddle transport module serves to allow
// communication among translators situated in different nodes").
//
// Wire format (big-endian):
//   u32 length of everything after this field
//   u8  type            1=DATA 2=CONNECT 3=DISCONNECT 4=DATA_DL 5=ACK
//                       6=RESUME 7=SEQ
//   DATA:       u64 dst-translator, str16 port, str16 mime,
//               u16 n-meta, n × (str16 key, str16 value), u32 len, payload
//   CONNECT:    u64 path-id, u64 src-translator, str16 src-port,
//               u8 dst-kind (1=fixed 2=query),
//               fixed → u64 dst-translator, str16 dst-port
//               query → str16 query-xml
//   DISCONNECT: u64 path-id
//   DATA_DL:    u64 deadline-ns, then the DATA fields — a DATA frame carrying
//               the message's absolute virtual-time deadline. Emitted only
//               when a deadline is set, so deadline-free worlds put exactly
//               the same bytes on the wire as before.
//   ACK:        u64 link-epoch, u64 cumulative-count — "I have accepted this
//               many frames from your link". Sent only in response to RESUME.
//   RESUME:     u64 sender-node, u64 link-epoch, u64 prev-channel,
//               u64 base-seq — sent by a reconnecting sender before replaying
//               anything, so the receiver can migrate its dedup count to the
//               new stream and tell the sender where to resume.
//   SEQ:        u64 seq, then a complete inner frame body (type byte first,
//               no length prefix). Used only for recovery replay: the
//               explicit per-link sequence number lets the receiver suppress
//               frames it already accepted. Inner type must be DATA, DATA_DL,
//               CONNECT or DISCONNECT (no nesting, no control frames). The
//               reader decodes the inner frame with its envelope, so a
//               replay is decoded once, like any other frame.
//
// The delivery-contract frames (ACK/RESUME/SEQ) appear on the wire only after
// a fault: fault-free links carry the exact PR-3-era byte stream, which keeps
// fault-free determinism digests bit-identical (DESIGN.md §11).
#pragma once

#include <variant>

#include "common/frame_reader.hpp"
#include "core/message.hpp"
#include "core/profile.hpp"
#include "core/shape.hpp"

namespace umiddle::core::umtp {

enum class FrameType : std::uint8_t {
  data = 1,
  connect = 2,
  disconnect = 3,
  data_deadline = 4,
  ack = 5,
  resume = 6,
  seq = 7,
};

struct DataFrame {
  PortRef dst;
  Message message;  ///< message.deadline_ns != 0 encodes as DATA_DL
};

struct ConnectFrame {
  PathId path;
  PortRef src;
  std::variant<PortRef, Query> dst;
};

struct DisconnectFrame {
  PathId path;
};

/// ACK count value meaning "no dedup state survives for this link" — the
/// receiver restarted since the epoch began. The sender must not replay its
/// sent-but-unacknowledged frames (they were delivered before the crash, or
/// died with it); replaying would duplicate, dropping matches the pre-contract
/// at-most-once crash semantics.
inline constexpr std::uint64_t kAckCountUnknown = ~std::uint64_t{0};

/// Cumulative acknowledgement for one link incarnation. Only the transport
/// session machinery may construct these (lint rule `ack-origin`): a forged or
/// misplaced ACK silently retires undelivered frames.
struct AckFrame {
  std::uint64_t epoch = 0;  ///< sender link epoch being acknowledged
  std::uint64_t count = 0;  ///< frames accepted on the link, or kAckCountUnknown
};

struct ResumeFrame {
  NodeId node;                       ///< reconnecting sender's node id
  std::uint64_t epoch = 0;           ///< link epoch (first stream id; never reused)
  std::uint64_t prev_channel = 0;    ///< channel the sender believes holds our count
  std::uint64_t base_seq = 0;        ///< oldest unacknowledged sequence number
};

/// The frames a SEQ envelope may wrap.
using ReplayedFrame = std::variant<DataFrame, ConnectFrame, DisconnectFrame>;

/// A replayed frame wrapped with its explicit per-link sequence number. The
/// reader decodes and checks the inner frame with its envelope, so the
/// receiver runs its dedup check on `seq` and delivers `frame` as it is.
struct SeqFrame {
  std::uint64_t seq = 0;
  ReplayedFrame frame;
};

using Frame =
    std::variant<DataFrame, ConnectFrame, DisconnectFrame, AckFrame, ResumeFrame, SeqFrame>;

Bytes encode(const Frame& frame);

/// Encode a DATA (or, when deadline_ns != 0, DATA_DL) frame straight from
/// dst/message, without constructing a DataFrame (and therefore without
/// copying the message). `deadline_ns` overrides message.deadline_ns so a
/// path-level TTL never mutates the shared Message. Byte-identical to
/// encode(Frame{DataFrame{...}}) for the same effective deadline.
Bytes encode_data(const PortRef& dst, const Message& message, std::int64_t deadline_ns = 0);

/// Wrap an already-encoded, length-prefixed frame (an encode() output) in a
/// SEQ envelope for recovery replay.
Bytes encode_seq(std::uint64_t seq, const Bytes& prefixed_frame);

/// Decode step for the length-prefixed frame at the front of a receive buffer;
/// a length announcing more than kMaxFrame is malformed at once, and an
/// incomplete frame whose length is in reports that full length. A complete
/// frame is decoded once, in the slot it appends to `out`: a DATA body's
/// fields go straight into the DataFrame the slot was built holding, so a
/// received message is built where it is delivered from.
[[nodiscard]] Result<std::size_t> next_frame(std::span<const std::uint8_t> buffer,
                                             std::vector<Frame>& out);

/// Incrementally reassembles frames from stream chunks.
using Reader = FrameReader<Frame, next_frame>;

/// Decode one frame body (without the u32 length prefix) into a fresh frame,
/// for fuzz and tests. The reader decodes through next_frame instead, into
/// the frame it hands on (lint rule `decode-once`).
[[nodiscard]] Result<Frame> decode_body(std::span<const std::uint8_t> body);

}  // namespace umiddle::core::umtp
