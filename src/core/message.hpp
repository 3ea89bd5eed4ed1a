// The unit of communication in the intermediary semantic space: a typed payload.
#pragma once

#include <map>
#include <string>

#include "common/bytes.hpp"
#include "common/mime.hpp"

namespace umiddle::core {

/// A message flowing through digital ports. Payload is opaque bytes interpreted
/// according to `type`; `meta` carries small out-of-band annotations (file name,
/// geographic origin, ...).
struct Message {
  MimeType type;
  Bytes payload;
  std::map<std::string, std::string> meta;
  /// Telemetry trace id (obs/trace.hpp), stamped at Runtime::route_emit; 0 =
  /// untraced. Never serialized into UMTP frames — wire bytes are part of the
  /// simulated experiment, so the id crosses nodes side-band (tracer baggage).
  std::uint64_t trace = 0;
  /// Absolute virtual-time deadline in nanoseconds; 0 = none. Unlike `trace`
  /// this IS part of the delivery contract, so it rides the UMTP header (a
  /// DATA_DL frame) and both ends drop the message once it expires instead of
  /// forwarding stale data (DESIGN.md §11). Messages without a deadline
  /// serialize exactly as before.
  std::int64_t deadline_ns = 0;

  static Message text(MimeType type, std::string_view body) {
    return Message{std::move(type), to_bytes(body), {}};
  }

  std::string body_text() const { return umiddle::to_string(payload); }
};

/// The expiry rule: an absolute deadline (0 = none) has passed at `now_ns`.
/// Expired messages are dropped, never delivered late.
inline bool deadline_passed(std::int64_t deadline_ns, std::int64_t now_ns) {
  return deadline_ns != 0 && now_ns >= deadline_ns;
}

}  // namespace umiddle::core
