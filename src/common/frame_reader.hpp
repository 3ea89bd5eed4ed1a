// Stream framing: the one reassembler every stream protocol runs on
// (DESIGN.md §7.6). UMTP, OBEX, MediaBroker, RMI, SDP and HIDP each supply
// only a decode step; the reader owns the receive buffer, the consume cursor,
// the size bound and poisoning, so those rules have one implementation.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace umiddle {

/// Upper bound on one frame, header included. A frame still incomplete at
/// this many buffered bytes is an error, so a lying length field cannot grow
/// a receive buffer without limit.
inline constexpr std::size_t kMaxFrame = 16 * 1024 * 1024;

/// A protocol's decode step over the bytes at the front of a receive buffer.
/// A complete frame is consumed: the step appends what it decodes to `out`
/// (nothing, for a frame the protocol skips) and returns the bytes it spans.
/// An incomplete frame returns 0, or, once its header is in, its full length
/// n > buffer.size(), which lets the reader buffer it in one allocation.
/// Malformed bytes return an error.
template <typename Frame>
using DecodeStep = Result<std::size_t> (*)(std::span<const std::uint8_t> buffer,
                                           std::vector<Frame>& out);

/// Reassembles `Frame`s from stream chunks with the protocol's decode step.
/// The first malformed or oversized frame poisons the reader: every later
/// feed returns the same error. Streams feed it only through net::frames
/// (netsim/exchange.hpp), which applies the one poison rule.
template <typename F, DecodeStep<F> decode>
class FrameReader {
 public:
  using Frame = F;

  /// Feed received bytes; complete frames are appended to `out`.
  [[nodiscard]] Result<void> feed(std::span<const std::uint8_t> chunk, std::vector<Frame>& out) {
    if (poisoned_) return *poisoned_;
    if (buffer_.empty()) {
      // Nothing buffered: decode whole frames straight from the chunk and
      // keep only a trailing partial frame.
      const Scan scan = consume(chunk, out);
      if (!poisoned_ && scan.pos < chunk.size()) {
        buffer_.reserve(scan.want);
        buffer_.assign(chunk.begin() + static_cast<std::ptrdiff_t>(scan.pos), chunk.end());
      }
    } else {
      buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
      // Erase the consumed prefix once per feed: erasing per frame made a
      // burst of n frames cost O(n^2) byte moves.
      const Scan scan = consume(buffer_, out);
      buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(scan.pos));
      buffer_.reserve(scan.want);
    }
    if (poisoned_) return *poisoned_;
    return ok_result();
  }

  bool poisoned() const { return poisoned_.has_value(); }

 private:
  /// How far a scan consumed, and the full length of the incomplete frame
  /// that stopped it (0 while its header is incomplete).
  struct Scan {
    std::size_t pos = 0;
    std::size_t want = 0;
  };

  /// Decode the complete frames at the front of `bytes`, poisoning the
  /// reader on a malformed or oversized one.
  Scan consume(std::span<const std::uint8_t> bytes, std::vector<Frame>& out) {
    Scan scan;
    while (scan.pos < bytes.size()) {
      const auto rest = bytes.subspan(scan.pos);
      auto consumed = decode(rest, out);
      if (!consumed.ok()) {
        poisoned_ = consumed.error();
      } else if (consumed.value() > rest.size()) {
        scan.want = consumed.value();
      } else if (consumed.value() == 0) {
        if (rest.size() >= kMaxFrame) {
          poisoned_ = make_error(Errc::protocol_error, "frame exceeds kMaxFrame");
        }
      } else {
        scan.pos += consumed.value();
        continue;
      }
      break;
    }
    return scan;
  }

  Bytes buffer_;
  std::optional<Error> poisoned_;
};

}  // namespace umiddle
