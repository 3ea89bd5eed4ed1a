#include "sim/scheduler.hpp"

#include <utility>

namespace umiddle::sim {

EventHandle Scheduler::schedule_after(Duration delay, std::function<void()> fn, EventTag tag) {
  if (delay < Duration(0)) delay = Duration(0);
  return schedule_at(now_ + delay, std::move(fn), tag);
}

EventHandle Scheduler::schedule_at(TimePoint when, std::function<void()> fn, EventTag tag) {
  if (when < now_) when = now_;
  std::uint64_t seq = next_seq_++;
  heap_push(Event{when, seq, tag, std::move(fn)});
  return EventHandle(when, seq);
}

void Scheduler::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  const bool left_heap = handle.when_ < popped_when_ ||
                         (handle.when_ == popped_when_ && handle.seq_ <= popped_seq_);
  if (left_heap) return;
  if (cancelled_set_.insert(handle.seq_).second) ++cancelled_;
}

void Scheduler::heap_push(Event ev) {
  heap_.push_back(std::move(ev));
  if (heap_.size() > high_water_) high_water_ = heap_.size();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], heap_[i])) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

Scheduler::Event Scheduler::heap_pop() {
  Event top = std::move(heap_.front());
  popped_when_ = top.when;
  popped_seq_ = top.seq;
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root, moving children up into the hole.
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && later(heap_[child], heap_[child + 1])) ++child;
      if (!later(last, heap_[child])) break;
      heap_[i] = std::move(heap_[child]);
      i = child;
    }
    heap_[i] = std::move(last);
  }
  return top;
}

bool Scheduler::dispatch_next(TimePoint limit) {
  if (pending() == 0) return false;
  // A live event is queued, so the heap cannot run dry while reaping.
  while (cancelled_ != 0 && heap_.front().when <= limit &&
         cancelled_set_.erase(heap_.front().seq) != 0) {
    --cancelled_;
    ++reaped_;
    (void)heap_pop();
  }
  if (heap_.front().when > limit) return false;
  Event ev = heap_pop();
  now_ = ev.when;
  digest_.absorb(static_cast<std::uint64_t>(ev.when.count()));
  digest_.absorb(ev.seq);
  digest_.absorb(ev.tag.host);
  digest_.absorb(ev.tag.tag);
  ++dispatched_;
  if (recorder_.enabled()) {
    recorder_.record(TraceRecord{ev.when.count(), ev.seq, ev.tag.host, ev.tag.tag});
  }
  ev.fn();
  return true;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(TimePoint deadline) {
  std::size_t n = 0;
  while (dispatch_next(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace umiddle::sim
