// Deferred work that must not outlive its owner (DESIGN.md §7.4).
//
// One rule: a callback that runs later may touch an object only while that
// object is alive and still wants it. Two types carry the rule, so no call site
// re-implements it with its own flag:
//
//   - Timer: deferred work the scheduler owns on an object's behalf (a poll
//     loop, a periodic refresh, a probe). A member of its owner; re-arming,
//     cancel() and destruction remove the pending event from the scheduler,
//     so a stopped or destroyed owner is never called back.
//   - Lifetime: completions the scheduler does not own (stream, HTTP, OBEX and
//     RMI callbacks, one-shot scheduled work). guard(fn) wraps a callback so
//     it does nothing once the Lifetime ended (destroyed or reset()).
//
// Owners of either must be destroyed before their Scheduler.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "sim/scheduler.hpp"

namespace umiddle::sim {

/// An owned, cancellable, always-tagged deferred callback.
class Timer {
 public:
  /// Binds the callback and its provenance tag once; every fire runs `fn`
  /// under `tag`.
  Timer(Scheduler& sched, EventTag tag, std::function<void()> fn)
      : sched_(sched), tag_(tag), fn_(std::move(fn)) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire `delay` from now, replacing any pending fire.
  void arm(Duration delay) {
    cancel();
    handle_ = sched_.schedule_after(delay, [this]() { fire(); }, tag_);
  }
  /// Drop the pending fire, if any.
  void cancel() {
    sched_.cancel(handle_);
    handle_ = {};
  }

 private:
  void fire() {
    handle_ = {};  // fired: nothing left to cancel
    fn_();
  }

  Scheduler& sched_;
  EventTag tag_;
  std::function<void()> fn_;
  EventHandle handle_;
};

/// Validity of an owner as seen by callbacks it cannot cancel.
class Lifetime {
 public:
  /// True while the Lifetime that issued it has not ended.
  using Token = std::shared_ptr<const bool>;

  Lifetime() = default;
  ~Lifetime() { *valid_ = false; }
  Lifetime(const Lifetime&) = delete;
  Lifetime& operator=(const Lifetime&) = delete;

  /// End this lifetime and begin a fresh one: callbacks guarded so far do
  /// nothing from now on, callbacks guarded later run normally.
  void reset() {
    *valid_ = false;
    valid_ = std::make_shared<bool>(true);
  }

  /// `fn`, except that it does nothing once this lifetime ended.
  template <typename Fn>
  auto guard(Fn fn) const {
    return [valid = valid_, fn = std::move(fn)](auto&&... args) mutable {
      if (*valid) fn(std::forward<decltype(args)>(args)...);
    };
  }

  /// For the rare check that must run after a call which may destroy the
  /// owner, or for work a callback does whether or not the owner lives.
  Token token() const { return valid_; }

 private:
  std::shared_ptr<bool> valid_ = std::make_shared<bool>(true);
};

}  // namespace umiddle::sim
