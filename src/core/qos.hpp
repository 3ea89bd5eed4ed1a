// QoS control for message paths.
//
// The paper identifies the missing piece of its transport-level bridge (§5.3,
// §7): when a fast platform feeds a slow one, "the data sent from other services
// \[accumulates\] in the uMiddle's translation buffer. Therefore, the universal
// interoperability layer should provide some QoS control mechanism." This module
// implements that future work: a token-bucket rate shaper plus a bounded
// translation buffer per path with a pluggable shedding policy, and accounting
// that the QoS ablation bench uses to reproduce the accumulation effect.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace umiddle::core {

/// Virtual time, with no simulator include: sim::Duration and sim::TimePoint
/// are aliases of this type, so callers pass them unchanged.
using Nanos = std::chrono::nanoseconds;

/// What to do when a bounded translation buffer is full and another message
/// arrives (DESIGN.md §11). Degradation is a per-path choice because it is a
/// semantic one: an actuation command must not be silently dropped, while a
/// sensor stream only ever needs its freshest sample.
enum class ShedPolicy : std::uint8_t {
  /// Tail drop: refuse the incoming message (the paper-era behaviour; default).
  drop_newest,
  /// Head drop: evict the oldest queued message(s) to make room.
  drop_oldest,
  /// Coalesce: queued messages for the same destination are superseded by the
  /// newcomer, then spill into oldest-first eviction. For media/sensor streams
  /// where only the latest value matters.
  latest_only,
  /// Backpressure, never drop: the whole emit is refused with would-block and
  /// the producer retries. For actions/commands.
  block,
};

/// Per-path policy. Default-constructed policy = no shaping, unbounded buffer
/// (the behaviour of the paper's base system).
struct QosPolicy {
  /// Sustained rate cap; unset = unlimited.
  std::optional<double> rate_bytes_per_sec;
  /// Bucket depth: how much burst may pass at line rate.
  std::size_t burst_bytes = 16 * 1024;
  /// Translation-buffer bound; unset = unbounded. 0 is a genuine zero-capacity
  /// buffer (every message sheds or blocks).
  std::optional<std::size_t> max_buffered_bytes;
  /// Applied when the bounded buffer fills.
  ShedPolicy shed = ShedPolicy::drop_newest;
  /// If set, a message entering this path without its own deadline gets
  /// deadline = emit time + ttl; expired messages are dropped (and never
  /// replayed) instead of being forwarded stale.
  std::optional<Nanos> message_ttl;

  bool shaped() const { return rate_bytes_per_sec.has_value(); }
  bool bounded() const { return max_buffered_bytes.has_value(); }
  /// Effective deadline of a message entering the path at `now`: its own
  /// (`own_ns`, 0 = none), else now + message_ttl if set, else 0.
  std::int64_t deadline(std::int64_t own_ns, Nanos now) const {
    if (own_ns != 0 || !message_ttl) return own_ns;
    return (now + *message_ttl).count();
  }
};

/// Token bucket over virtual time.
class TokenBucket {
 public:
  TokenBucket(double rate_bytes_per_sec, std::size_t burst_bytes)
      : rate_(rate_bytes_per_sec), burst_(static_cast<double>(burst_bytes)),
        tokens_(static_cast<double>(burst_bytes)) {}

  /// Try to spend `bytes` at time `now`; returns true on success.
  bool try_consume(std::size_t bytes, Nanos now);

  /// Time until `bytes` would be affordable (zero if affordable now).
  Nanos delay_for(std::size_t bytes, Nanos now);

  double tokens(Nanos now);

 private:
  void refill(Nanos now);

  double rate_;
  double burst_;
  double tokens_;
  Nanos last_{0};
};

}  // namespace umiddle::core
