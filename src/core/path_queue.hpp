// One path's translation buffer: admission, shedding, shaping and
// sender-side expiry as a netsim-free value type (DESIGN.md §11.6).
//
// The paper names this buffer as the place a fast platform swamps a slow one
// (§5.3) and its QoS control as future work (§7). PathQueue makes every
// decision about it; Transport carries out the effects: it schedules the
// drain and translate events, opens spans, says whether a destination is
// ready, delivers what the queue hands it and accounts each fate. The queue
// includes nothing from netsim/, sim/ or obs/ (lint rule
// `netsim-free-session`), so tests/path_queue_test drives it, and explores it,
// without a simulated network.
//
// A message that leaves with a fate goes to the caller's sink(Fate, const
// Message&), in the order the fates happen. A fault-free offer or take calls
// no sink and allocates nothing beyond the queue's own storage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "core/message.hpp"
#include "core/profile.hpp"
#include "core/qos.hpp"

namespace umiddle::core {

/// Every way a message leaves the transport undelivered (DESIGN.md §11, the
/// fate table); Transport::retire is the one place a fate is accounted.
///   blocked          emit refused with would-block by a Block-policy buffer
///   shed_*           shed by a full bounded buffer, per its ShedPolicy
///   expired          deadline passed, at the sender or the receiver
///   quarantined      the destination's circuit breaker is open
///   unmapped         destination translator unknown to the directory or runtime
///   no_route         the link to the destination's node cannot open
///   outage_dropped   outage buffer full, or the link given up
///   unacked_dropped  sent but unacknowledged when the peer restarted
///   discarded        held by a path, link or runtime that was torn down
enum class Fate : std::uint8_t { blocked, shed_newest, shed_oldest, shed_latest, expired,
  quarantined, unmapped, no_route, outage_dropped, unacked_dropped, discarded };
inline constexpr std::size_t kFateCount = static_cast<std::size_t>(Fate::discarded) + 1;

class PathQueue {
 public:
  /// One queued message. The Message is shared, never copied: Transport wraps
  /// an emitted message once and every bound destination's item references
  /// that same buffer (payload-sharing rule, DESIGN.md §8).
  struct Item {
    PortRef dst;
    std::shared_ptr<const Message> msg;
    /// Effective absolute deadline (the message's own, or offer time + the
    /// path's TTL); 0 = none. Kept here so a path TTL never mutates the
    /// shared Message.
    std::int64_t deadline_ns = 0;
  };

  /// What next() decided. No field set: nothing to do now (the queue is
  /// empty, or an item is in translation).
  struct Next {
    const Item* taken = nullptr;  ///< the front, now in translation
    Nanos wait{0};                ///< > 0: the shaper holds the front this long
    bool stalled = false;         ///< the front's destination is not ready
  };

  explicit PathQueue(QosPolicy qos = {}) : qos_(std::move(qos)) {
    if (qos_.shaped()) bucket_.emplace(*qos_.rate_bytes_per_sec, qos_.burst_bytes);
  }

  /// Bytes queued, not counting the item in translation, and their
  /// high-water mark.
  std::size_t bytes() const { return bytes_; }
  std::size_t high_water() const { return high_water_; }

  /// Block admission: a Block-policy buffer without room for `fanout` copies
  /// of `msg`, so the emit is refused whole. A message already past its
  /// effective deadline needs no room: offer() retires it as expired, so it
  /// must not trip a would-block refusal a retrying producer could spin on
  /// forever.
  bool refuses(const Message& msg, std::size_t fanout, Nanos now) const {
    return qos_.shed == ShedPolicy::block && qos_.bounded() &&
           !deadline_passed(qos_.deadline(msg.deadline_ns, now), now.count()) &&
           bytes_ + msg.payload.size() * fanout > *qos_.max_buffered_bytes;
  }

  /// Queue `msg` for `dst`, making room per the ShedPolicy when the bounded
  /// buffer is full. False: it left through `sink` instead (expired, shed or
  /// blocked).
  template <typename Sink>
  bool offer(const PortRef& dst, const std::shared_ptr<const Message>& msg, Nanos now,
             Sink&& sink) {
    const std::int64_t deadline_ns = qos_.deadline(msg->deadline_ns, now);
    if (deadline_passed(deadline_ns, now.count())) {
      sink(Fate::expired, *msg);
      return false;
    }
    const std::size_t size = msg->payload.size();
    const bool full = qos_.bounded() && bytes_ + size > *qos_.max_buffered_bytes;
    if (full && !make_room(dst, *msg, sink)) return false;
    items_.push_back(Item{dst, msg, deadline_ns});
    bytes_ += size;
    high_water_ = std::max(high_water_, bytes_);
    return true;
  }

  /// Retire the expired front, then hold for the shaper, or take the front
  /// into translation if `ready(dst)` says its destination accepts it now.
  /// Translation is serialized: nothing happens while an item is in it.
  template <typename Ready, typename Sink>
  Next next(Nanos now, Ready&& ready, Sink&& sink) {
    if (translating_) return {};
    // Expired messages never leave the buffer: retire them before shaping or
    // backpressure, so a stalled destination cannot pin stale data.
    while (!items_.empty() && deadline_passed(items_.front().deadline_ns, now.count())) {
      bytes_ -= items_.front().msg->payload.size();
      sink(Fate::expired, *items_.front().msg);
      items_.pop_front();
    }
    if (items_.empty()) return {};
    const std::size_t size = items_.front().msg->payload.size();
    const Nanos delay = bucket_ ? bucket_->delay_for(size, now) : Nanos(0);
    if (delay > Nanos(0)) return {nullptr, delay};
    if (!ready(items_.front().dst)) return {nullptr, Nanos(0), true};
    if (bucket_) bucket_->try_consume(size, now);
    translating_ = std::move(items_.front());
    items_.pop_front();
    bytes_ -= size;
    return {&*translating_, Nanos(0)};
  }

  /// The translation cost has been charged: hand over the item in
  /// translation, unless its deadline passed meanwhile (it retires as
  /// expired) or there is none.
  template <typename Sink>
  std::optional<Item> finish(Nanos now, Sink&& sink) {
    std::optional<Item> item = std::exchange(translating_, std::nullopt);
    if (item && deadline_passed(item->deadline_ns, now.count())) {
      sink(Fate::expired, *item->msg);
      return std::nullopt;
    }
    return item;
  }

  /// `translator` is gone: what is queued for it retires as unmapped. The
  /// item in translation stays; delivery finds the destination gone.
  template <typename Sink>
  void unbind(TranslatorId translator, Sink&& sink) {
    std::erase_if(items_, [&](const Item& item) {
      if (item.dst.translator != translator) return false;
      bytes_ -= item.msg->payload.size();
      sink(Fate::unmapped, *item.msg);
      return true;
    });
  }

  /// The path is torn down, this queue with it: everything held, queued or
  /// in translation, retires as discarded.
  template <typename Sink>
  void discard(Sink&& sink) const {
    for (const Item& item : items_) sink(Fate::discarded, *item.msg);
    if (translating_) sink(Fate::discarded, *translating_->msg);
  }

 private:
  friend struct PathQueueProbe;

  /// Apply the ShedPolicy to admit `msg` for `dst` into the full bounded
  /// buffer. True = room was made.
  template <typename Sink>
  bool make_room(const PortRef& dst, const Message& msg, Sink& sink) {
    const std::size_t cap = *qos_.max_buffered_bytes;
    const std::size_t size = msg.payload.size();
    if (qos_.shed == ShedPolicy::drop_newest || qos_.shed == ShedPolicy::block) {
      // Tail drop refuses the newcomer. Transport refuses Block emits up
      // front through refuses(), with fan-out-aware accounting; reaching here
      // means the buffer filled between admission and offer, so refuse
      // without dropping anything queued.
      sink(qos_.shed == ShedPolicy::block ? Fate::blocked : Fate::shed_newest, msg);
      return false;
    }
    const bool latest = qos_.shed == ShedPolicy::latest_only;
    const Fate fate = latest ? Fate::shed_latest : Fate::shed_oldest;
    auto evict = [&](const Item& victim) {
      bytes_ -= victim.msg->payload.size();
      sink(fate, *victim.msg);
    };
    if (latest) {
      // Coalesce: the newcomer supersedes everything queued for the same
      // destination, then spills into oldest-first eviction if still over.
      std::erase_if(items_, [&](const Item& item) {
        if (!(item.dst == dst)) return false;
        evict(item);
        return true;
      });
    }
    while (!items_.empty() && bytes_ + size > cap) {
      evict(items_.front());
      items_.pop_front();
    }
    if (bytes_ + size > cap) {
      // Nothing left to evict and the message alone exceeds the bound (zero
      // or tiny capacity): shed the newcomer itself.
      sink(fate, msg);
      return false;
    }
    return true;
  }

  QosPolicy qos_;
  std::optional<TokenBucket> bucket_;
  std::deque<Item> items_;
  /// The item whose translation cost is being charged; at most one.
  std::optional<Item> translating_;
  std::size_t bytes_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace umiddle::core
