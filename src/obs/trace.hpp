// Message-path spans over virtual time.
//
// A TraceId (plain uint64, 0 = none) is stamped onto a core::Message the first
// time it enters the runtime (Runtime::route_emit) and rides along through
// mapper -> translator -> directory match -> UMTP transport -> netsim segment
// delivery. Each hop opens a Span (phase name + host track + virtual begin/end),
// so end-to-end bridging latency decomposes into the paper's §5 components:
// discovery, translation, wire.
//
// Determinism contract: span ids, trace ids, and all timestamps derive from the
// event loop only — two same-seed runs yield byte-identical trace exports. The
// tracer is per-world (owned by net::Network alongside the metrics registry);
// never process-global.
//
// Cross-node propagation is SIDE-BAND, not in-band. UMTP frame bytes are part
// of the simulated experiment — timing derives from wire size — so carrying a
// trace id inside the frame would change every serialization time and perturb
// virtual-time behavior (the determinism digests would move). Instead the
// sender stages {trace, wire-span} on a per-stream FIFO "baggage" channel in
// the world's tracer at link_send time, and the receiver takes it when the
// DATA frame is decoded. Streams are reliable and ordered and all event
// processing is deterministic, so the FIFO pairing is exact. One phase is not
// message-scoped: "recover" (trace 0, unattributed) brackets a link outage
// from reset detection to reconnect/give-up. Staged baggage dies with the
// old stream: the transport forgets its channel when the stream ends, which
// ends each staged wire span at that moment, so a lost frame's wire span
// stops where its stream did. Replayed frames are counted (recovery.replays)
// but get no wire span of their own; the recover span carries the outage's
// timing instead.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/scheduler.hpp"

namespace umiddle::obs {

/// One timed phase of one message's journey (or of a discovery handshake).
/// A plain record: the phase name and the host track are ids into the
/// tracer's intern table, so a span copies by memcpy and owns no heap.
struct Span {
  std::uint64_t trace = 0;  ///< owning trace, 0 = unattributed
  sim::TimePoint begin{0};
  sim::TimePoint end{0};
  std::uint32_t name = 0;   ///< phase ("discovery", "translate", "wire", ...): Tracer::text
  std::uint32_t track = 0;  ///< host/node the work ran on (Perfetto thread row): Tracer::text
  bool closed = false;

  sim::Duration duration() const { return end - begin; }
};
static_assert(std::is_trivially_copyable_v<Span> && sizeof(Span) <= 40);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Mint a fresh trace id (deterministic per-world sequence).
  std::uint64_t new_trace() { return ++trace_seq_; }

  /// The id of `text` in the intern table that span names and tracks share,
  /// added on first use. The table is a closed set (about 15 phase names and
  /// one track per host; lint rule `span-name-literal`), so a scan is cheap.
  std::uint32_t intern(std::string_view text);
  /// The text of an interned id. Valid until the next intern().
  const std::string& text(std::uint32_t id) const { return texts_[id]; }

  /// Open a span; returns its id (index + 1 in spans()), or 0 if the tracer
  /// is at capacity (the drop is counted). end_span(0) is a no-op, so call
  /// sites need no branches. Hot callers intern once and pass ids.
  std::uint64_t begin_span(std::uint64_t trace, std::uint32_t name, std::uint32_t track,
                           sim::TimePoint now) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{trace, now, now, name, track, false});
    ++open_count_;
    return spans_.size();
  }
  std::uint64_t begin_span(std::uint64_t trace, std::string_view name, std::string_view track,
                           sim::TimePoint now) {
    return begin_span(trace, intern(name), intern(track), now);
  }
  void end_span(std::uint64_t span_id, sim::TimePoint now) {
    if (span_id == 0 || span_id > spans_.size()) return;
    Span& span = spans_[span_id - 1];
    if (span.closed) return;
    span.end = now;
    span.closed = true;
    --open_count_;
  }
  /// Zero-duration marker (e.g. local delivery handoff).
  void instant(std::uint64_t trace, std::uint32_t name, std::uint32_t track, sim::TimePoint now) {
    end_span(begin_span(trace, name, track, now), now);
  }
  void instant(std::uint64_t trace, std::string_view name, std::string_view track,
               sim::TimePoint now) {
    instant(trace, intern(name), intern(track), now);
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t open_spans() const { return open_count_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Bound memory under stress scenarios; deterministic because the cap is
  /// hit at the same point in both same-seed runs.
  void set_capacity(std::size_t cap) { capacity_ = cap; }

  // --- side-band baggage (see file header) ----------------------------------
  struct Staged {
    std::uint64_t trace = 0;
    std::uint64_t span = 0;  ///< sender's open wire span, ended by the receiver
  };
  /// Sender: queue baggage for the in-flight DATA frame on `channel` (the
  /// sender-side stream id). One stage() per DATA frame sent.
  void stage(std::uint64_t channel, std::uint64_t trace, std::uint64_t span);
  /// Receiver: claim baggage for the DATA frame just decoded from `channel`.
  /// An emptied queue stays, so an idle link does not rebuild it per frame.
  std::optional<Staged> take(std::uint64_t channel);
  /// Drop `channel`'s queue: its stream has ended, so nothing will take what
  /// a frame lost with it staged. The wire spans still staged there end at
  /// `now`, when the stream that would have carried them died.
  void forget(std::uint64_t channel, sim::TimePoint now);
  /// Channels that hold a queue, empty or not.
  std::size_t baggage_channels() const { return staged_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<std::string> texts_;
  std::map<std::uint64_t, std::deque<Staged>> staged_;
  std::size_t capacity_ = 65536;
  std::size_t open_count_ = 0;
  std::uint64_t trace_seq_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace umiddle::obs
