#include "netsim/fault.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "netsim/stream.hpp"

namespace umiddle::net {

FaultPlane::FaultPlane(Network& net, std::uint64_t seed)
    // Salted so the fault chain never replays the network Rng's draw sequence.
    : net_(net), rng_(seed ^ 0xF417F417F417F417ull) {}

// Fault/recovery counters are resolved lazily (only once a fault actually
// fires): a fault-free world must keep its metrics snapshot byte-identical to
// a world built before this subsystem existed.

void FaultPlane::cut(SegmentId segment, sim::TimePoint t0, sim::TimePoint t1) {
  if (!(t0 < t1)) return;
  net_.sched_.schedule_at(t0, [this, segment]() { partition_now(segment); },
                          {sim::host_id("faultplane"), sim::tag_id("fault.cut")});
  net_.sched_.schedule_at(t1, [this, segment]() { heal_now(segment); },
                          {sim::host_id("faultplane"), sim::tag_id("fault.heal")});
}

void FaultPlane::partition_now(SegmentId segment) {
  if (net_.segments_.count(segment) == 0) return;
  if (!partitioned_.insert(segment).second) return;
  partitions_ += 1;
  net_.metrics_.counter("fault.partitions").inc();
  log::Entry(log::Level::info, "fault")
      << "partition: segment " << net_.segments_.at(segment).spec.name << " cut";
  reset_streams_on_segment(segment);
}

void FaultPlane::heal_now(SegmentId segment) {
  if (partitioned_.erase(segment) == 0) return;
  log::Entry(log::Level::info, "fault")
      << "heal: segment " << net_.segments_.at(segment).spec.name << " carries again";
}

void FaultPlane::set_burst_loss(SegmentId segment, BurstLossSpec spec) {
  burst_[segment] = GeChain{spec, /*bad=*/false};
}

void FaultPlane::clear_burst_loss(SegmentId segment) { burst_.erase(segment); }

void FaultPlane::set_loss(SegmentId segment, double probability) {
  net_.segments_.at(segment).spec.loss = probability;
}

void FaultPlane::crash_host(const std::string& host) {
  auto dead = net_.resolve(host);
  if (!dead.ok()) return;
  crashes_ += 1;
  net_.metrics_.counter("fault.crashes").inc();
  log::Entry(log::Level::info, "fault") << "crash: host " << host << " died";

  // Kernel state of the dead process: sockets, listeners, multicast joins.
  Network::Host& h = net_.hosts_[dead.value()];
  h.sockets.clear();
  h.listeners.clear();
  h.groups.clear();
  net_.routes_.clear();

  // Streams: the dead process's ends vanish silently (its handlers can never
  // run again); each surviving peer end observes an abort, RST-style.
  std::vector<StreamPtr> local, peers;
  for (const auto& [id, s] : net_.streams_) {
    if (s->closed()) continue;
    if (s->host_ == dead.value()) local.push_back(s);
    else if (s->remote_host_ == dead.value()) peers.push_back(s);
  }
  auto by_id = [](const StreamPtr& a, const StreamPtr& b) { return a->id() < b->id(); };
  std::sort(local.begin(), local.end(), by_id);
  std::sort(peers.begin(), peers.end(), by_id);
  for (const StreamPtr& s : local) {
    streams_reset_ += 1;
    s->abort(/*notify_handlers=*/false);
  }
  for (const StreamPtr& s : peers) {
    streams_reset_ += 1;
    s->abort(/*notify_handlers=*/true);
  }
  net_.metrics_.counter("fault.stream_resets").inc(local.size() + peers.size());
}

void FaultPlane::reset_stream(StreamId id) {
  Stream* s = net_.stream(id);
  if (s == nullptr || s->closed()) return;
  StreamId peer = s->peer();
  streams_reset_ += 1;
  net_.metrics_.counter("fault.stream_resets").inc();
  s->abort(/*notify_handlers=*/true);
  if (Stream* p = net_.stream(peer); p != nullptr && !p->closed()) {
    streams_reset_ += 1;
    net_.metrics_.counter("fault.stream_resets").inc();
    p->abort(/*notify_handlers=*/true);
  }
}

bool FaultPlane::frame_lost(SegmentId segment, bool lossless) {
  if (!partitioned_.empty() && partitioned_.count(segment) != 0) {
    frames_blackholed_ += 1;
    net_.metrics_.counter("fault.frames_blackholed").inc();
    return true;
  }
  if (lossless || burst_.empty()) return false;
  auto it = burst_.find(segment);
  if (it == burst_.end()) return false;
  GeChain& chain = it->second;
  // Advance the two-state Markov chain once per consulted frame, then draw
  // against the state's loss probability.
  if (chain.bad) {
    if (rng_.chance(chain.spec.p_bad_to_good)) chain.bad = false;
  } else if (rng_.chance(chain.spec.p_good_to_bad)) {
    chain.bad = true;
  }
  const double p = chain.bad ? chain.spec.loss_bad : chain.spec.loss_good;
  if (p > 0.0 && rng_.chance(p)) {
    burst_losses_ += 1;
    net_.metrics_.counter("fault.burst_losses").inc();
    return true;
  }
  return false;
}

void FaultPlane::reset_streams_on_segment(SegmentId segment) {
  std::vector<StreamPtr> victims;
  for (const auto& [id, s] : net_.streams_) {
    if (!s->closed() && s->segment_ == segment) victims.push_back(s);
  }
  std::sort(victims.begin(), victims.end(),
            [](const StreamPtr& a, const StreamPtr& b) { return a->id() < b->id(); });
  streams_reset_ += victims.size();
  if (!victims.empty()) net_.metrics_.counter("fault.stream_resets").inc(victims.size());
  for (const StreamPtr& s : victims) s->abort(/*notify_handlers=*/true);
}

}  // namespace umiddle::net
