// Unit tests for the discrete-event scheduler: ordering, cancellation, run modes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace umiddle::sim {
namespace {

TEST(SchedulerTest, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), TimePoint(0));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_after(milliseconds(30), [&] { order.push_back(3); });
  s.schedule_after(milliseconds(10), [&] { order.push_back(1); });
  s.schedule_after(milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(SchedulerTest, EqualTimesFireInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    s.schedule_after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, PostRunsAtCurrentTime) {
  Scheduler s;
  s.schedule_after(seconds(1), [] {});
  bool ran = false;
  s.post([&] { ran = true; });
  s.step();  // post fires first (time 0 < 1s)
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), TimePoint(0));
}

TEST(SchedulerTest, EventsMayScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.schedule_after(milliseconds(1), chain);
  };
  s.schedule_after(milliseconds(1), chain);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), milliseconds(5));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.schedule_after(milliseconds(1), [&] { ran = true; });
  s.cancel(h);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler s;
  int count = 0;
  EventHandle h = s.schedule_after(milliseconds(1), [&] { ++count; });
  s.run();
  s.cancel(h);  // already fired: no-op
  s.cancel(EventHandle{});  // invalid: no-op
  EXPECT_EQ(s.pending(), 0u);
  EventHandle h2 = s.schedule_after(milliseconds(1), [&] { ++count; });
  s.cancel(h);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending(), 0u);

  // Cancelled twice, then reaped inside a run_until that stops at its
  // deadline; cancelling it again (or a fired handle) changes nothing.
  EventHandle early = s.schedule_after(milliseconds(5), [&] { ++count; });
  EventHandle late = s.schedule_after(milliseconds(15), [&] { ++count; });
  s.schedule_after(milliseconds(20), [&] { ++count; });
  s.cancel(early);
  s.cancel(early);
  s.cancel(late);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(s.now() + milliseconds(10));
  s.cancel(early);
  s.cancel(late);
  s.cancel(h2);
  EXPECT_EQ(s.pending(), 1u);
  // Scheduled now, it sorts before `late`; cancelling it must still work.
  s.cancel(s.schedule_after(milliseconds(1), [&] { count += 100; }));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 0u);
  s.cancel(late);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<int> fired;
  s.schedule_after(milliseconds(10), [&] { fired.push_back(1); });
  s.schedule_after(milliseconds(30), [&] { fired.push_back(2); });
  EXPECT_EQ(s.run_until(milliseconds(20)), 1u);
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_EQ(s.now(), milliseconds(20));  // time advances to deadline
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RunUntilInclusiveOfDeadline) {
  Scheduler s;
  bool ran = false;
  s.schedule_after(milliseconds(20), [&] { ran = true; });
  s.run_until(milliseconds(20));
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, RunForAdvancesRelative) {
  Scheduler s;
  s.run_for(milliseconds(15));
  EXPECT_EQ(s.now(), milliseconds(15));
  s.run_for(milliseconds(15));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(SchedulerTest, PastScheduleClampsToNow) {
  Scheduler s;
  s.run_for(seconds(1));
  bool ran = false;
  s.schedule_at(milliseconds(1), [&] { ran = true; });  // in the past
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), seconds(1));
}

TEST(SchedulerTest, NegativeDelayClampsToNow) {
  Scheduler s;
  bool ran = false;
  s.schedule_after(milliseconds(-5), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, StepProcessesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.post([&] { ++count; });
  s.post([&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, DurationHelpers) {
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(microseconds(1), nanoseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(microseconds(2500)), 2.5);
}

TEST(SchedulerTest, CancelledEventsDoNotBlockRunUntil) {
  Scheduler s;
  EventHandle h = s.schedule_after(milliseconds(5), [] {});
  bool ran = false;
  s.schedule_after(milliseconds(50), [&] { ran = true; });
  s.cancel(h);
  s.run_until(milliseconds(10));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(milliseconds(60));
  EXPECT_TRUE(ran);
}

/// A capture that counts its own destruction, then runs `then`: moved-from
/// copies do neither.
struct DestroyProbe {
  explicit DestroyProbe(int* destroyed, std::function<void()> then = {})
      : destroyed(destroyed), then(std::move(then)) {}
  DestroyProbe(DestroyProbe&& other) noexcept
      : destroyed(other.destroyed),
        then(std::move(other.then)),
        owner(std::exchange(other.owner, false)) {}
  DestroyProbe& operator=(DestroyProbe&&) = delete;
  ~DestroyProbe() {
    if (!owner) return;
    ++*destroyed;
    if (then) then();
  }
  int* destroyed;
  std::function<void()> then;
  bool owner = true;
};

TEST(CallbackTest, HoldsAMoveOnlyCapture) {
  Scheduler s;
  int seen = 0;
  s.post([&seen, p = std::make_unique<int>(42)] { seen = *p; });
  s.run();
  EXPECT_EQ(seen, 42);
}

TEST(CallbackTest, CaptureDiesOnceAfterItFires) {
  int destroyed = 0;
  int destroyed_while_running = -1;
  Scheduler s;
  s.post([&, probe = DestroyProbe(&destroyed)] { destroyed_while_running = destroyed; });
  EXPECT_EQ(destroyed, 0);
  s.run();
  EXPECT_EQ(destroyed_while_running, 0);
  EXPECT_EQ(destroyed, 1);
}

TEST(CallbackTest, CancelledCaptureDiesOnceWhenReapedNotWhenCancelled) {
  int destroyed = 0;
  Scheduler s;
  EventHandle h = s.schedule_after(milliseconds(1), [probe = DestroyProbe(&destroyed)] {});
  s.schedule_after(milliseconds(2), [] {});
  s.cancel(h);
  s.cancel(h);
  EXPECT_EQ(destroyed, 0);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(s.cancellations_reaped(), 1u);
  EXPECT_EQ(s.events_dispatched(), 1u);
}

TEST(CallbackTest, ReapedCaptureMayScheduleAndCancelAsItDies) {
  int destroyed = 0;
  std::vector<int> order;
  Scheduler s;
  EventHandle doomed = s.schedule_after(milliseconds(3), [&order] { order.push_back(3); });
  EventHandle reaped = s.schedule_after(
      milliseconds(1), [&order, probe = DestroyProbe(&destroyed, [&] {
                                  s.post([&order] { order.push_back(1); });
                                  s.cancel(doomed);
                                })] { order.push_back(-1); });
  s.schedule_after(milliseconds(2), [&order] { order.push_back(2); });
  s.cancel(reaped);
  EXPECT_EQ(s.pending(), 2u);
  // Reaping the cancelled event runs its capture's destructor, which posts
  // an event and cancels the one at 3 ms. That one is never reaped: only
  // cancelled events remain once the 2 ms event has run.
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.cancellations_reaped(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(CallbackTest, PendingCapturesDieOnceWithTheScheduler) {
  int destroyed = 0;
  {
    Scheduler s;
    s.schedule_after(milliseconds(1), [probe = DestroyProbe(&destroyed)] {});
    EventHandle h = s.schedule_after(milliseconds(2), [probe = DestroyProbe(&destroyed)] {});
    s.cancel(h);  // cancelled but never reaped
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(CallbackTest, DyingCaptureMayCancelAndScheduleWhileTheSchedulerDies) {
  int destroyed = 0;
  {
    Scheduler s;
    EventHandle other = s.schedule_after(milliseconds(2), [probe = DestroyProbe(&destroyed)] {});
    s.schedule_after(milliseconds(1), [probe = DestroyProbe(&destroyed, [&] {
                                         s.cancel(other);
                                         s.post([probe = DestroyProbe(&destroyed)] {});
                                       })] {});
  }
  EXPECT_EQ(destroyed, 3);
}

TEST(SlotPoolTest, CallbackThatGrowsThePoolWhileRunningKeepsItsCapture) {
  Scheduler s;
  std::vector<int> order;
  std::string after;
  s.post([&, tail = std::string(40, 'z')] {
    for (int i = 0; i < 10'000; ++i) {
      s.schedule_after(microseconds(1 + i), [&order, i] { order.push_back(i); });
    }
    after = tail;  // the pool regrew under this callback
  });
  EXPECT_EQ(s.run(), 10'001u);
  EXPECT_EQ(after, std::string(40, 'z'));
  ASSERT_EQ(order.size(), 10'000u);
  for (int i = 0; i < 10'000; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(s.heap_high_water(), 10'000u);
}

TEST(SlotPoolTest, RunningCallbackStaysInPlaceWhileItsEventsFillNewChunks) {
  Scheduler s;
  struct {
    int fired = 0;
    const void* before = nullptr;
    const void* after = nullptr;
    std::string tail;
  } seen;
  s.post([&s, &seen, tail = std::string(24, 'q')] {
    seen.before = &tail;
    // More events than the first few chunks hold: new chunks are added while
    // this callback runs, and it must not move.
    for (int i = 0; i < 300; ++i) s.post([&seen] { ++seen.fired; });
    seen.after = &tail;
    seen.tail = tail;
  });
  EXPECT_EQ(s.run(), 301u);
  EXPECT_EQ(seen.fired, 300);
  EXPECT_EQ(seen.before, seen.after);
  EXPECT_EQ(seen.tail, std::string(24, 'q'));
}

TEST(SlotPoolTest, CancellingItsOwnHandleFromInsideIsANoOp) {
  Scheduler s;
  EventHandle self;
  int ran = 0;
  self = s.schedule_after(milliseconds(1), [&] {
    s.cancel(self);
    ++ran;
    // The freed slot goes to the next event; the stale handle must miss it.
    s.schedule_after(milliseconds(1), [&] { ++ran; });
    s.cancel(self);
    EXPECT_EQ(s.pending(), 1u);
  });
  s.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.cancellations_reaped(), 0u);
}

TEST(SlotPoolTest, StaleHandleMissesTheEventThatReusedItsSlot) {
  Scheduler s;
  int fired = 0;
  EventHandle fired_handle = s.schedule_after(milliseconds(1), [&] { ++fired; });
  s.run();
  EventHandle reaped_handle = s.schedule_after(milliseconds(1), [&] { fired += 100; });
  s.schedule_after(milliseconds(2), [&] { ++fired; });
  s.cancel(reaped_handle);
  s.run();  // reaps the cancelled event, freeing its slot
  EXPECT_EQ(fired, 2);

  EventHandle live = s.schedule_after(milliseconds(1), [&] { fired += 10; });
  s.schedule_after(milliseconds(1), [&] { fired += 10; });
  s.cancel(fired_handle);   // both stale handles name slots the new events took
  s.cancel(reaped_handle);
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_EQ(fired, 22);
  s.cancel(live);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(TimerTest, ArmReplacesThePendingFireAndCancelDropsIt) {
  Scheduler s;
  std::vector<std::int64_t> fired;
  Timer t(s, {1, tag_id("test.timer")}, [&] { fired.push_back(s.now().count()); });
  t.arm(milliseconds(10));
  t.arm(milliseconds(30));  // replaces the 10 ms fire
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, std::vector<std::int64_t>{milliseconds(30).count()});

  t.arm(milliseconds(5));
  t.cancel();
  t.cancel();
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimerTest, DestructionCancelsAndEveryFireCarriesTheTag) {
  Scheduler s;
  s.trace_recorder().enable();
  int fired = 0;
  {
    Timer t(s, {7, tag_id("test.timer")}, [&] { ++fired; });
    t.arm(milliseconds(1));
    s.run();
    t.arm(milliseconds(1));
  }
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_EQ(fired, 1);
  ASSERT_EQ(s.trace_recorder().snapshot().size(), 1u);
  EXPECT_EQ(s.trace_recorder().snapshot()[0].host, 7u);
  EXPECT_EQ(s.trace_recorder().snapshot()[0].tag, tag_id("test.timer"));
}

TEST(LifetimeTest, GuardedCallbacksStopAtResetAndDestruction) {
  int calls = 0;
  std::function<void(int)> before_reset;
  std::function<void(int)> after_reset;
  Lifetime::Token token;
  {
    Lifetime life;
    before_reset = life.guard([&](int n) { calls += n; });
    before_reset(1);
    life.reset();
    before_reset(10);  // ended: no-op
    after_reset = life.guard([&](int n) { calls += n; });
    token = life.token();
    after_reset(100);
    EXPECT_TRUE(*token);
  }
  after_reset(1000);  // destroyed: no-op
  EXPECT_FALSE(*token);
  EXPECT_EQ(calls, 101);
}

}  // namespace
}  // namespace umiddle::sim
