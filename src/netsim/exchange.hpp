// Stream frame handling (DESIGN.md §7.6). net::frames is the one place a
// stream's chunks become frames and the one poison rule: UMTP, OBEX, SDP,
// RMI, MediaBroker, HTTP and HIDP each supply only a per-frame step.
// net::Exchange runs a one-shot client request on a fresh stream over it;
// sdp_query, http_fetch, the OBEX client operations and the RMI registry
// client supply only their protocol step.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "netsim/stream.hpp"

namespace umiddle::net {

/// An on_data handler for `stream`: reassembles `Reader` frames from chunks
/// and hands each complete one to `on_frame(Frame&)`. The first malformed
/// frame poisons the reader, and no frame of its chunk is handed on. The
/// poison is logged, then `on_poison(error)` runs if given, or else the
/// stream is closed; after that the handler hands on nothing more.
template <typename Reader, typename OnFrame>
Stream::DataHandler frames(Stream& stream, OnFrame on_frame,
                           std::function<void(const Error&)> on_poison = {}) {
  using Frame = typename Reader::Frame;
  return [stream = &stream, reader = Reader{}, kept = std::vector<Frame>{},
          on_frame = std::move(on_frame),
          on_poison = std::move(on_poison)](std::span<const std::uint8_t> chunk) mutable {
    if (reader.poisoned()) return;
    // The frame vector is kept across chunks for its capacity; it is taken
    // out while the frames are handled, so a feed they cause gets its own.
    std::vector<Frame> frames = std::move(kept);
    frames.clear();
    if (auto r = reader.feed(chunk, frames); !r.ok()) {
      log::Entry(log::Level::warn, "net") << "bad frame on stream " << stream->id().value()
                                          << ", closing: " << r.error().to_string();
      if (on_poison) {
        on_poison(r.error());
      } else {
        stream->close();
      }
      return;
    }
    for (Frame& frame : frames) on_frame(frame);
    kept = std::move(frames);
  };
}

/// Runs one request/reply exchange on a freshly connected stream and resolves
/// `done` exactly once, with whichever comes first:
///   * the protocol step's result, a framing error included;
///   * Errc::disconnected when the stream closes before that;
///   * the connect error, at once, when there is no stream at all.
/// After an ok result the exchange sends `farewell`, if any (OBEX DISCONNECT);
/// it then closes the stream, whatever the result.
template <typename T>
class Exchange {
 public:
  using Done = std::function<void(Result<T>)>;
  /// A step's verdict on the frames received so far: none yet, or the result.
  using Reply = std::optional<Result<T>>;

  /// `request` is sent once the stream connects. `step(Stream&, Frame&)`
  /// returns a Reply for every received `Reader` frame and may send further
  /// requests.
  template <typename Reader, typename Step>
  static void run(Result<StreamPtr> connecting, PayloadPtr request, Step step, Done done,
                  PayloadPtr farewell = nullptr) {
    if (!connecting.ok()) {
      done(connecting.error());
      return;
    }
    StreamPtr s = std::move(connecting).take();
    // Empty once resolved: whichever completion comes second finds nothing to call.
    auto pending = std::make_shared<Done>(std::move(done));
    s->on_connected([s, request = std::move(request)]() { (void)s->send(request); });
    s->on_data(frames<Reader>(
        *s,
        [s, pending, step = std::move(step),
         farewell = std::move(farewell)](typename Reader::Frame& frame) mutable {
          if (!*pending) return;
          Reply reply = step(*s, frame);
          if (!reply) return;
          const bool ok = reply->ok();
          std::exchange(*pending, nullptr)(std::move(*reply));
          if (ok && farewell != nullptr) (void)s->send(farewell);
          s->close();
        },
        [s, pending](const Error& error) {
          if (!*pending) return;
          std::exchange(*pending, nullptr)(error);
          s->close();
        }));
    s->on_close([pending]() {
      if (!*pending) return;
      std::exchange(*pending, nullptr)(
          make_error(Errc::disconnected, "stream closed before the exchange completed"));
    });
  }
};

}  // namespace umiddle::net
