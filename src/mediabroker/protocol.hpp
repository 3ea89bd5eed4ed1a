// MediaBroker wire protocol.
//
// MediaBroker (Modahl et al., PerCom 2004 — the paper's [13]) is a distributed
// media transformation infrastructure from Georgia Tech: producers publish
// typed media streams through a broker, consumers subscribe, and the broker
// can apply type transformations in-line. This reproduction implements the
// slice the paper's §5.3 benchmark exercises: registration, streaming DATA
// frames with light framing (MB is the *fast* leg of Fig. 11), and stream
// announcements for the uMiddle mapper's discovery.
//
// Frames over a stream connection:
//   u8 op, str16 stream-name, then op-specific fields:
//     1 PRODUCE  (str16 media-type)         — declare a producer
//     2 CONSUME  ()                         — subscribe
//     3 DATA     (u32 len, payload)         — media frame
//     4 WATCH    ()                         — subscribe to announcements
//     5 ANNOUNCE (str16 media-type)         — new stream exists
//     6 RETIRE   ()                         — stream gone
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/frame_reader.hpp"

namespace umiddle::mb {

enum class Op : std::uint8_t {
  produce = 1,
  consume = 2,
  data = 3,
  watch = 4,
  announce = 5,
  retire = 6,
};

struct Frame {
  Op op = Op::data;
  std::string stream;
  std::string media_type;  ///< produce/announce
  Bytes payload;           ///< data

  Bytes encode() const;
};

/// A frame as the broker reads it. A DATA frame keeps its bytes as they
/// arrived, so that the broker forwards them as they are instead of decoding
/// the payload and encoding it again.
struct WireFrame {
  Frame head;  ///< op, stream and media type; its payload stays empty
  Bytes wire;  ///< data: the whole frame

  /// data: the payload, a view into `wire`.
  std::span<const std::uint8_t> payload() const;
  /// The bytes it arrived as: `wire` for DATA, else head.encode().
  Bytes encode() const;
};

/// A DATA frame for `stream` carrying `payload`, encoded straight from the
/// caller's bytes (Frame::encode's DATA case).
Bytes encode_data(std::string_view stream, std::span<const std::uint8_t> payload);

/// Decode steps for the frame at the front of a receive buffer: one header
/// parse, and a DATA frame keeps its payload (clients) or its bytes (the
/// broker).
[[nodiscard]] Result<std::size_t> next_frame(std::span<const std::uint8_t> buffer,
                                             std::vector<Frame>& out);
[[nodiscard]] Result<std::size_t> next_wire_frame(std::span<const std::uint8_t> buffer,
                                                  std::vector<WireFrame>& out);

/// Incremental frame readers: a client's, and the broker's.
using Reader = FrameReader<Frame, next_frame>;
using WireReader = FrameReader<WireFrame, next_wire_frame>;

}  // namespace umiddle::mb
