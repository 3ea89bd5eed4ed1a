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
#include <memory>
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

/// A non-copyable `void()` callable stored inline, with no heap fallback: the
/// capture of every scheduled event is built in its slot of the scheduler's
/// pool and runs there, so scheduling allocates and relocates nothing
/// (DESIGN.md §8.1). A capture that does not fit fails to compile; shrink it,
/// for example by parking the state in a Slots<T> table (common/slots.hpp)
/// and capturing its key.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 64;

  Callback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert
    emplace(std::forward<F>(fn));
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Fill this empty callback: a callable is constructed in the buffer, and
  /// another Callback is moved in with one relocation, leaving it empty.
  template <typename F>
  void emplace(F&& fn) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
      ops_ = std::exchange(fn.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(buf_, fn.buf_);
    } else {
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
  }

  void operator()() { ops_->invoke(buf_); }

  /// Destroy the callable, if any. Its destructor may schedule or cancel.
  void reset() {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

 private:
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
  EventHandle(void* slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  void* slot_ = nullptr;  ///< the issuing Scheduler's Slot
  std::uint64_t seq_ = 0;
};

/// Single-threaded discrete-event loop.
class Scheduler {
 public:
  Scheduler() = default;
  /// Pending callbacks die first, while every member is alive: a capture's
  /// destructor may still cancel or schedule (the new event never runs).
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  /// Run `fn` at the current time, after already-queued same-time events.
  template <typename F>
  EventHandle post(F&& fn, EventTag tag = {}) {
    return schedule_at(now_, std::forward<F>(fn), tag);
  }

  /// Run `fn` `delay` after now (negative delays clamp to 0).
  template <typename F>
  EventHandle schedule_after(Duration delay, F&& fn, EventTag tag = {}) {
    return schedule_at(now_ + (delay < Duration(0) ? Duration(0) : delay), std::forward<F>(fn),
                       tag);
  }

  /// Run `fn` at absolute virtual time `when` (past times clamp to now).
  /// The capture is built in the event's slot, where it later runs and dies.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  EventHandle schedule_at(TimePoint when, F&& fn, EventTag tag = {}) {
    if (free_ == nullptr) build_slot();
    Slot& s = *free_;
    s.fn.emplace(std::forward<F>(fn));
    free_ = s.next_free;
    return enqueue(when < now_ ? now_ : when, s, tag);
  }

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

  std::size_t pending() const { return queued() - cancelled_; }

  // --- determinism audit (sim/audit.hpp) -----------------------------------------
  /// Rolling digest of every event dispatched so far: (virtual time, sequence
  /// number, host id, event tag) in dispatch order. Two same-seed runs of the
  /// same scenario must report identical values at the same virtual time.
  std::uint64_t trace_digest() const { return digest_.value(); }
  /// Events dispatched so far (cancelled events never count).
  std::uint64_t events_dispatched() const { return dispatched_; }
  /// Cancelled events lazily discarded at the queue head so far.
  std::uint64_t cancellations_reaped() const { return reaped_; }
  /// Largest number of queued keys ever reached, lane and heap together
  /// (queue pressure high-water mark). Plain counters, not obs instruments:
  /// sim sits below obs in the layering, so the world's registry samples
  /// these via a snapshot-time collector instead.
  std::size_t heap_high_water() const { return high_water_; }
  /// Optional bounded record of recent dispatches, for diffing divergent runs.
  TraceRecorder& trace_recorder() { return recorder_; }
  const TraceRecorder& trace_recorder() const { return recorder_; }

 private:
  /// Where an event lives from schedule to run. `seq` is the queued event's
  /// sequence number; 0 once it is cancelled, running or the slot is free, so
  /// a handle matches only while its event is pending.
  struct Slot {
    Callback fn;
    EventTag tag;
    std::uint64_t seq = 0;
    Slot* next_free = nullptr;  ///< the free list's link, while the slot is free
  };
  /// What the queues order: 24 bytes, the event's order plus where it lives.
  struct Key {
    TimePoint when;
    std::uint64_t seq;
    Slot* slot;
  };

  /// True if `a` must fire after `b`. (when, seq) pairs are unique, so this is
  /// a strict total order — dispatch order cannot depend on queue layout.
  static bool later(const Key& a, const Key& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  /// Slots live in chunks that never move, so a callback runs where it was
  /// built even when it schedules more events than the pool holds. Chunk c
  /// has room for kFirstChunk << c slots: the pool doubles as a vector would,
  /// but keeps its old slots in place, and a slot is constructed (and its
  /// memory touched) only when the free list first runs dry.
  static constexpr std::size_t kFirstChunk = 16;
  static std::size_t chunk_size(std::size_t c) { return kFirstChunk << c; }
  /// Put a newly constructed slot on the empty free list, adding a chunk if
  /// the newest one is full.
  void build_slot();
  /// Stamp `s` with a fresh seq and queue its key.
  EventHandle enqueue(TimePoint when, Slot& s, EventTag tag);
  /// Destroy `s`'s callback in place, then free the slot. Its destructor
  /// may schedule, and must not be handed its own slot.
  void retire(Slot& s) {
    s.fn.reset();
    s.next_free = free_;
    free_ = &s;
  }

  std::size_t queued() const { return lane_.size() - lane_head_ + heap_.size(); }
  // Hand-rolled binary min-heap over heap_; std::push_heap/pop_heap measured
  // no faster on space_standup and mixed on mb_echo.
  void heap_push(Key key);
  Key heap_pop();
  /// Take the lane's front key, compacting the consumed prefix once it is
  /// at least half the lane: the lane never holds more than twice its live
  /// keys.
  Key lane_pop();
  /// Dispatch the next live event due at or before `limit`, first discarding
  /// the cancelled events ahead of it (lazy deletion); false if there is none.
  /// Nothing is discarded past `limit` or when no live event remains. Every
  /// run mode funnels through here, and so does the audit digest: virtual
  /// time advances to the event's deadline and the event is absorbed before
  /// it runs.
  bool dispatch_next(TimePoint limit);

  /// The FIFO lane: keys in dispatch order from lane_head_ on. A key not
  /// earlier than the lane's last joins it; any other goes to the heap, except
  /// that a lane of one live key hands that key to the heap and restarts at
  /// the new one, so a lone far-future timer cannot turn a burst away. A
  /// NIC's frames arrive in send order, so a burst of them stays out of the
  /// heap. Dispatch takes the earlier of the lane front and the heap top.
  std::vector<Key> lane_;
  std::size_t lane_head_ = 0;
  std::vector<Key> heap_;
  std::allocator<Slot> alloc_;
  std::vector<Slot*> chunks_;
  std::size_t built_ = 0;    ///< slots constructed in chunks_.back()
  Slot* free_ = nullptr;     ///< the free list: empty slots, last freed first
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
