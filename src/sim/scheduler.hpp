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
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
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

/// A move-only `void()` callable stored inline, with no heap fallback: the
/// capture of every scheduled event lives in the scheduler's slot pool, so
/// scheduling allocates nothing (DESIGN.md §8.1). A capture that does not fit
/// fails to compile; shrink it, for example by parking the state in a
/// Slots<T> table (common/slots.hpp) and capturing its key.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 64;

  Callback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture exceeds sim::Callback's inline buffer: shrink it");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "capture must be nothrow-move-constructible: a by-copy capture of a const "
                  "object is not, so write it as an init-capture");
    static_assert(alignof(Fn) <= alignof(void*), "over-aligned capture");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  void reset() {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move-construct, destroy src
    void (*destroy)(void*) noexcept;
  };
  template <typename Fn>
  static constexpr Ops kOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  alignas(void*) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Handle for cancelling a scheduled event: the pool slot the event occupies
/// and its sequence number, which no later event shares.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return seq_ != 0; }

 private:
  friend class Scheduler;
  EventHandle(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Single-threaded discrete-event loop.
class Scheduler {
 public:
  Scheduler() = default;
  /// Pending callbacks die first, while every member is alive: a capture's
  /// destructor may still cancel (a no-op by then) or schedule (never run).
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  /// Run `fn` at the current time, after already-queued same-time events.
  EventHandle post(Callback fn, EventTag tag = {}) {
    return schedule_after(Duration(0), std::move(fn), tag);
  }

  /// Run `fn` `delay` after now (negative delays clamp to 0).
  EventHandle schedule_after(Duration delay, Callback fn, EventTag tag = {});

  /// Run `fn` at absolute virtual time `when` (past times clamp to now).
  EventHandle schedule_at(TimePoint when, Callback fn, EventTag tag = {});

  /// Cancel a queued event. A no-op for an invalid handle and for an event
  /// that already fired, was already cancelled or was discarded as cancelled;
  /// pending() stays exact either way. The callback's captures are destroyed
  /// when the cancelled event is discarded, not here.
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
  /// What the heap sifts: 24 bytes, the event's order plus where it lives.
  struct Key {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// An event's payload, parked in the pool while its key is in the heap.
  /// `seq` is the queued event's sequence number; 0 once it is cancelled or
  /// the slot is free, so a handle matches only while its event is pending.
  struct Slot {
    Callback fn;
    EventTag tag;
    std::uint64_t seq = 0;
  };

  /// True if `a` must fire after `b`. (when, seq) pairs are unique, so this is
  /// a strict total order — dispatch order cannot depend on heap layout.
  static bool later(const Key& a, const Key& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  // Hand-rolled binary min-heap over heap_; std::push_heap/pop_heap measured
  // no faster on space_standup and mixed on mb_echo. heap_ and the pool keep
  // their capacity, so steady-state scheduling allocates nothing.
  void heap_push(Key key);
  Key heap_pop();
  /// Empty `slot`, put it on the free list and return its callback. The
  /// callback leaves the pool before it runs or dies: either may schedule, and
  /// so grow the pool under it.
  Callback release(std::uint32_t slot);
  /// Dispatch the next live event due at or before `limit`, first discarding
  /// the cancelled events ahead of it (lazy deletion); false if there is none.
  /// Nothing is discarded past `limit` or when no live event remains. Every
  /// run mode funnels through here, and so does the audit digest: virtual
  /// time advances to the event's deadline and the event is absorbed before
  /// it runs.
  bool dispatch_next(TimePoint limit);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< indices of empty slots_
  TimePoint now_{0};
  std::uint64_t next_seq_ = 1;
  std::size_t cancelled_ = 0;
  std::uint64_t reaped_ = 0;
  std::size_t high_water_ = 0;
  TraceDigest digest_;
  TraceRecorder recorder_;
  std::uint64_t dispatched_ = 0;
};

}  // namespace umiddle::sim
