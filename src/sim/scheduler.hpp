// Discrete-event scheduler with virtual time.
//
// Every substrate in this reproduction (netsim, the protocol stacks, the uMiddle
// runtime) is event-driven on top of this scheduler, which makes whole-system runs
// deterministic: the paper's benchmarks are reported in *virtual* time, so results
// are exactly reproducible across machines (see DESIGN.md §3).
//
// Determinism is *audited*, not assumed: every dispatched event is absorbed into
// an always-on TraceDigest (sim/audit.hpp); two same-seed runs of the same
// scenario must end with identical trace_digest() values. tests/determinism_test
// enforces this for the integration and stress scenarios.
//
// Events at equal timestamps fire in insertion order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/audit.hpp"

namespace umiddle::sim {

/// Virtual time since simulation start.
using Duration = std::chrono::nanoseconds;
using TimePoint = Duration;

constexpr Duration nanoseconds(std::int64_t n) { return Duration(n); }
constexpr Duration microseconds(std::int64_t n) { return Duration(n * 1000); }
constexpr Duration milliseconds(std::int64_t n) { return Duration(n * 1000'000); }
constexpr Duration seconds(std::int64_t n) { return Duration(n * 1000'000'000); }

/// Duration in fractional units, for reporting.
constexpr double to_seconds(Duration d) { return static_cast<double>(d.count()) * 1e-9; }
constexpr double to_millis(Duration d) { return static_cast<double>(d.count()) * 1e-6; }

/// Handle for cancelling a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return seq_ != 0; }

 private:
  friend class Scheduler;
  EventHandle(TimePoint when, std::uint64_t seq) : when_(when), seq_(seq) {}
  TimePoint when_{0};
  std::uint64_t seq_ = 0;
};

/// Single-threaded discrete-event loop.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  /// Run `fn` at the current time, after already-queued same-time events.
  EventHandle post(std::function<void()> fn, EventTag tag = {}) {
    return schedule_after(Duration(0), std::move(fn), tag);
  }

  /// Run `fn` `delay` after now (negative delays clamp to 0).
  EventHandle schedule_after(Duration delay, std::function<void()> fn, EventTag tag = {});

  /// Run `fn` at absolute virtual time `when` (past times clamp to now).
  EventHandle schedule_at(TimePoint when, std::function<void()> fn, EventTag tag = {});

  /// Cancel a queued event. A no-op for an invalid handle and for an event
  /// that already fired, was already cancelled or was discarded as cancelled;
  /// pending() stays exact either way.
  void cancel(EventHandle handle);

  /// Process events until the queue is empty. Returns events processed.
  std::size_t run();

  /// Process events with time <= deadline; virtual time ends at `deadline`
  /// even if the queue drains early. Returns events processed.
  std::size_t run_until(TimePoint deadline);

  /// Convenience: run_until(now() + d).
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Process at most one event. Returns false if the queue is empty.
  bool step() { return dispatch_next(TimePoint::max()); }

  std::size_t pending() const { return heap_.size() - cancelled_; }

  // --- determinism audit (sim/audit.hpp) -----------------------------------------
  /// Rolling digest of every event dispatched so far: (virtual time, sequence
  /// number, host id, event tag) in dispatch order. Two same-seed runs of the
  /// same scenario must report identical values at the same virtual time.
  std::uint64_t trace_digest() const { return digest_.value(); }
  /// Events dispatched so far (cancelled events never count).
  std::uint64_t events_dispatched() const { return dispatched_; }
  /// Cancelled events lazily discarded at the heap head so far.
  std::uint64_t cancellations_reaped() const { return reaped_; }
  /// Largest heap size ever reached (queue pressure high-water mark). Plain
  /// counters, not obs instruments: sim sits below obs in the layering, so the
  /// world's registry samples these via a snapshot-time collector instead.
  std::size_t heap_high_water() const { return high_water_; }
  /// Optional bounded record of recent dispatches, for diffing divergent runs.
  TraceRecorder& trace_recorder() { return recorder_; }
  const TraceRecorder& trace_recorder() const { return recorder_; }

 private:
  struct Event {
    TimePoint when;
    std::uint64_t seq;
    EventTag tag;
    std::function<void()> fn;
  };

  /// True if `a` must fire after `b`. (when, seq) pairs are unique, so this is
  /// a strict total order — dispatch order cannot depend on heap layout.
  static bool later(const Event& a, const Event& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  // Hand-rolled binary min-heap over heap_. std::priority_queue only exposes a
  // const top(), which forces a copy of the std::function per pop; these sift
  // by move. The vector doubles as the event pool: capacity is retained across
  // pops, so steady-state scheduling performs no per-event allocation beyond
  // what each std::function capture needs.
  void heap_push(Event ev);
  Event heap_pop();
  /// Dispatch the next live event due at or before `limit`, first discarding
  /// the cancelled events ahead of it (lazy deletion); false if there is none.
  /// Nothing is discarded past `limit` or when no live event remains, so
  /// every popped event is at or before now() once a run returns: cancel()
  /// relies on that. Every run mode funnels through here, and so does the
  /// audit digest: virtual time advances to the event's deadline and the
  /// event is absorbed before it runs.
  bool dispatch_next(TimePoint limit);

  std::vector<Event> heap_;
  /// Seqs cancelled while still queued; entries are reaped when they reach the
  /// heap head. O(1) insert/lookup vs the seed's per-pop linear scan.
  std::unordered_set<std::uint64_t> cancelled_set_;
  TimePoint now_{0};
  std::uint64_t next_seq_ = 1;
  /// Key of the last popped event. The heap pops in (when, seq) order and
  /// later pushes sort after it, so a handle at or before it has left the heap.
  TimePoint popped_when_{0};
  std::uint64_t popped_seq_ = 0;
  std::size_t cancelled_ = 0;
  std::uint64_t reaped_ = 0;
  std::size_t high_water_ = 0;
  TraceDigest digest_;
  TraceRecorder recorder_;
  std::uint64_t dispatched_ = 0;
};

}  // namespace umiddle::sim
