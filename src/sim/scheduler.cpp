#include "sim/scheduler.hpp"

namespace umiddle::sim {

Scheduler::~Scheduler() {
  const auto built = [this](std::size_t c) {
    return c + 1 == chunks_.size() ? built_ : chunk_size(c);
  };
  // An event a dying capture schedules takes a newly built slot, which this
  // loop reaches too; every chunk stays allocated until it ends.
  free_ = nullptr;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    for (std::size_t i = 0; i < built(c); ++i) chunks_[c][i].fn.reset();
  }
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    std::destroy_n(chunks_[c], built(c));
    alloc_.deallocate(chunks_[c], chunk_size(c));
  }
}

void Scheduler::build_slot() {
  if (chunks_.empty() || built_ == chunk_size(chunks_.size() - 1)) {
    chunks_.push_back(alloc_.allocate(chunk_size(chunks_.size())));
    built_ = 0;
  }
  free_ = std::construct_at(chunks_.back() + built_++);
}

EventHandle Scheduler::enqueue(TimePoint when, Slot& s, EventTag tag) {
  const std::uint64_t seq = next_seq_++;
  s.tag = tag;
  s.seq = seq;
  const Key key{when, seq, &s};
  if (lane_.size() - lane_head_ == 1 && later(lane_.back(), key)) {
    heap_push(lane_.back());  // a lone later key must not turn a burst away
    lane_.clear();
    lane_head_ = 0;
  }
  if (lane_.empty() || !later(lane_.back(), key)) {
    lane_.push_back(key);
  } else {
    heap_push(key);
  }
  if (queued() > high_water_) high_water_ = queued();
  return EventHandle(&s, seq);
}

void Scheduler::cancel(EventHandle handle) {
  // A fired or discarded event freed its slot, and a cancelled one cleared
  // its seq; seqs are never reused, so only a pending event matches.
  if (!handle.valid()) return;
  Slot& s = *static_cast<Slot*>(handle.slot_);
  if (s.seq != handle.seq_) return;
  s.seq = 0;
  ++cancelled_;
}

void Scheduler::heap_push(Key key) {
  heap_.push_back(key);
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

Scheduler::Key Scheduler::lane_pop() {
  const Key front = lane_[lane_head_++];
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  } else if (2 * lane_head_ >= lane_.size()) {
    lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
  return front;
}

bool Scheduler::dispatch_next(TimePoint limit) {
  while (pending() != 0) {
    const bool from_lane =
        lane_head_ < lane_.size() && (heap_.empty() || later(heap_.front(), lane_[lane_head_]));
    if ((from_lane ? lane_[lane_head_] : heap_.front()).when > limit) return false;
    const Key key = from_lane ? lane_pop() : heap_pop();
    Slot& s = *key.slot;
    if (s.seq != key.seq) {
      // Cancelled: discard it. Its captures die here, after the queues are
      // consistent again, since their destructors may schedule or cancel.
      --cancelled_;
      ++reaped_;
      retire(s);
      continue;
    }
    s.seq = 0;  // running: its own handle no longer cancels anything
    now_ = key.when;
    digest_.absorb(static_cast<std::uint64_t>(key.when.count()));
    digest_.absorb(key.seq);
    digest_.absorb(s.tag.host);
    digest_.absorb(s.tag.tag);
    ++dispatched_;
    if (recorder_.enabled()) {
      recorder_.record(TraceRecord{key.when.count(), key.seq, s.tag.host, s.tag.tag});
    }
    s.fn();  // in place: chunks never move, and the slot is not free until it returns
    retire(s);
    return true;
  }
  return false;
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
