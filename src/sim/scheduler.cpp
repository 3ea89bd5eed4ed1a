#include "sim/scheduler.hpp"

#include <utility>

namespace umiddle::sim {

Scheduler::~Scheduler() {
  heap_.clear();
  free_.clear();
  auto doomed = std::move(slots_);
}

EventHandle Scheduler::schedule_after(Duration delay, Callback fn, EventTag tag) {
  if (delay < Duration(0)) delay = Duration(0);
  return schedule_at(now_ + delay, std::move(fn), tag);
}

EventHandle Scheduler::schedule_at(TimePoint when, Callback fn, EventTag tag) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.tag = tag;
  s.seq = seq;
  heap_push(Key{when, seq, slot});
  return EventHandle(slot, seq);
}

void Scheduler::cancel(EventHandle handle) {
  // A fired or discarded event freed its slot, and a cancelled one cleared
  // its seq; seqs are never reused, so only a pending event matches.
  if (!handle.valid() || handle.slot_ >= slots_.size()) return;
  Slot& s = slots_[handle.slot_];
  if (s.seq != handle.seq_) return;
  s.seq = 0;
  ++cancelled_;
}

void Scheduler::heap_push(Key key) {
  heap_.push_back(key);
  if (heap_.size() > high_water_) high_water_ = heap_.size();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], key)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Scheduler::Key Scheduler::heap_pop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
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
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = last;
  }
  return top;
}

Callback Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  free_.push_back(slot);
  return std::move(s.fn);
}

bool Scheduler::dispatch_next(TimePoint limit) {
  for (;;) {
    if (pending() == 0) return false;
    const Key& top = heap_.front();
    if (top.when > limit) return false;
    if (slots_[top.slot].seq == top.seq) break;
    // Cancelled: discard it. Its captures die here, after the pool is
    // consistent again, since their destructors may schedule or cancel.
    --cancelled_;
    ++reaped_;
    (void)release(heap_pop().slot);
  }
  const Key key = heap_pop();
  const EventTag tag = slots_[key.slot].tag;
  Callback fn = release(key.slot);
  now_ = key.when;
  digest_.absorb(static_cast<std::uint64_t>(key.when.count()));
  digest_.absorb(key.seq);
  digest_.absorb(tag.host);
  digest_.absorb(tag.tag);
  ++dispatched_;
  if (recorder_.enabled()) {
    recorder_.record(TraceRecord{key.when.count(), key.seq, tag.host, tag.tag});
  }
  fn();
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
