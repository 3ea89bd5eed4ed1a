// One-shot client exchanges: the one way a client request on a fresh stream
// completes (DESIGN.md §7.6). sdp_query, http_fetch and the OBEX client
// operations supply only their protocol step.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "netsim/stream.hpp"

namespace umiddle::net {

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
  /// A step's verdict on the bytes received so far: none yet, or the result.
  using Reply = std::optional<Result<T>>;

  /// `request` is sent once the stream connects. `step(Stream&, chunk)`
  /// returns a Reply for every received chunk and may send further requests.
  template <typename Step>
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
    s->on_data([s, pending, step = std::move(step),
                farewell = std::move(farewell)](std::span<const std::uint8_t> chunk) mutable {
      if (!*pending) return;
      Reply reply = step(*s, chunk);
      if (!reply) return;
      const bool ok = reply->ok();
      std::exchange(*pending, nullptr)(std::move(*reply));
      if (ok && farewell != nullptr) (void)s->send(farewell);
      s->close();
    });
    s->on_close([pending]() {
      if (!*pending) return;
      std::exchange(*pending, nullptr)(
          make_error(Errc::disconnected, "stream closed before the exchange completed"));
    });
  }
};

}  // namespace umiddle::net
