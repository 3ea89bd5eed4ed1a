#include "netsim/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "netsim/fault.hpp"
#include "netsim/stream.hpp"

namespace umiddle::net {

Network::Network(sim::Scheduler& sched, std::uint64_t seed)
    : sched_(sched),
      rng_(seed),
      faults_(std::make_unique<FaultPlane>(*this, seed)),
      udp_datagrams_(metrics_.counter("net.udp.datagrams")),
      udp_multicast_sends_(metrics_.counter("net.udp.multicasts")),
      stream_connects_(metrics_.counter("net.stream.connects")),
      connect_rtt_ns_(metrics_.histogram("net.stream.connect_rtt_ns", obs::latency_bounds_ns())) {
  // Implicit loopback "segment": traffic between sockets of the same host
  // never touches a physical medium (kernel loopback).
  SegmentSpec loopback;
  loopback.name = "loopback";
  loopback.bandwidth_bps = 1e9;
  loopback.latency = sim::microseconds(5);
  loopback.shared_medium = false;
  loopback.frame_overhead = 0;
  loopback.preamble = 0;
  loopback.mtu_payload = 65536;
  loopback_ = add_segment(loopback);

  // Sample scheduler counters, segment stats, and stream backlog into gauges at
  // snapshot time. Segments iterate in id order, so gauge registration order —
  // and with it snapshot layout — is deterministic.
  metrics_.add_collector([this] {
    metrics_.gauge("sim.events_dispatched")
        .set(static_cast<std::int64_t>(sched_.events_dispatched()));
    metrics_.gauge("sim.pending_events").set(static_cast<std::int64_t>(sched_.pending()));
    metrics_.gauge("sim.cancellations_reaped")
        .set(static_cast<std::int64_t>(sched_.cancellations_reaped()));
    metrics_.gauge("sim.heap_high_water")
        .set(static_cast<std::int64_t>(sched_.heap_high_water()));
    metrics_.gauge("net.stream.backlog_high_water")
        .set(static_cast<std::int64_t>(stream_backlog_high_water_));
    for (const auto& [id, seg] : segments_) {
      const std::string prefix = "net.seg" + id.to_string() + "." + seg.spec.name + ".";
      metrics_.gauge(prefix + "frames").set(static_cast<std::int64_t>(seg.stats.frames));
      metrics_.gauge(prefix + "payload_bytes")
          .set(static_cast<std::int64_t>(seg.stats.payload_bytes));
      metrics_.gauge(prefix + "wire_bytes").set(static_cast<std::int64_t>(seg.stats.wire_bytes));
      metrics_.gauge(prefix + "dropped").set(static_cast<std::int64_t>(seg.stats.dropped));
      metrics_.gauge(prefix + "busy_ns").set(seg.stats.busy_time.count());
    }
  });
}

Network::~Network() {
  // Streams' handlers capture the streams' own shared_ptrs as keep-alives;
  // sever those cycles so still-open connections are reclaimed with the world.
  for (auto& [id, stream] : streams_) stream->drop_handlers();
}

SegmentId Network::add_segment(SegmentSpec spec) {
  SegmentId id = segment_ids_.next();
  segments_[id].spec = std::move(spec);
  return id;
}

Result<void> Network::add_host(const std::string& name) {
  if (hosts_.count(name) != 0) {
    return make_error(Errc::already_exists, "host exists: " + name);
  }
  hosts_[name].trace_id = sim::host_id(name);
  return ok_result();
}

Result<void> Network::attach(const std::string& host, SegmentId segment) {
  auto h = hosts_.find(host);
  if (h == hosts_.end()) return make_error(Errc::not_found, "no such host: " + host);
  auto s = segments_.find(segment);
  if (s == segments_.end()) return make_error(Errc::not_found, "no such segment");
  h->second.segments.insert(segment);
  s->second.hosts.insert(host);
  return ok_result();
}

const SegmentStats& Network::stats(SegmentId segment) const {
  return segments_.at(segment).stats;
}

const SegmentSpec& Network::spec(SegmentId segment) const { return segments_.at(segment).spec; }

Result<void> Network::check_host(const std::string& name) const {
  if (hosts_.count(name) == 0) return make_error(Errc::not_found, "no such host: " + name);
  return ok_result();
}

SegmentId Network::common_segment(const std::string& a, const std::string& b) const {
  auto ha = hosts_.find(a);
  auto hb = hosts_.find(b);
  if (ha == hosts_.end() || hb == hosts_.end()) return SegmentId{};
  if (a == b) return loopback_;
  for (SegmentId seg : ha->second.segments) {
    if (hb->second.segments.count(seg) != 0) return seg;
  }
  return SegmentId{};
}

sim::TimePoint Network::send_frame(SegmentId seg_id, const std::string& src,
                                   std::size_t payload_size, std::function<void()> deliver,
                                   bool lossless) {
  Segment& seg = segments_.at(seg_id);
  const SegmentSpec& spec = seg.spec;

  const std::size_t wire_bytes = payload_size + spec.frame_overhead + spec.preamble;
  const double bits = static_cast<double>(wire_bytes) * 8.0;
  auto ser_time = sim::Duration(static_cast<std::int64_t>(bits / spec.bandwidth_bps * 1e9));

  sim::TimePoint start = sched_.now();
  if (spec.shared_medium) {
    if (seg.medium_busy_until > start) {
      start = seg.medium_busy_until;
      // Medium was busy: charge contention backoff (CSMA-style approximation).
      start += sim::Duration(
          static_cast<std::int64_t>(spec.contention_overhead * static_cast<double>(ser_time.count())));
    }
    seg.medium_busy_until = start + ser_time;
  } else {
    auto& nic = hosts_.at(src).nic_busy_until[seg_id];
    if (nic > start) start = nic;
    nic = start + ser_time;
  }

  sim::TimePoint arrival = start + ser_time + spec.latency;

  seg.stats.frames += 1;
  seg.stats.payload_bytes += payload_size;
  seg.stats.wire_bytes += wire_bytes;
  seg.stats.busy_time += ser_time;

  bool lost = !lossless && spec.loss > 0.0 && rng_.chance(spec.loss);
  // Fault plane second: partitions blackhole everything (lossless included);
  // the Gilbert–Elliott chain layers burst loss on datagrams. A fault-free
  // world takes neither branch and draws nothing extra.
  if (!lost) lost = faults_->frame_lost(seg_id, lossless);
  if (lost) {
    seg.stats.dropped += 1;
    return arrival;
  }
  sched_.schedule_at(arrival, std::move(deliver),
                     {hosts_.at(src).trace_id, sim::tag_id("net.deliver")});
  return arrival;
}

// --- datagrams ---------------------------------------------------------------

Result<void> Network::udp_bind(const Endpoint& local, DatagramHandler handler) {
  if (auto r = check_host(local.host); !r.ok()) return r;
  if (udp_sockets_.count(local) != 0) {
    return make_error(Errc::already_exists, "udp endpoint in use: " + local.to_string());
  }
  udp_sockets_[local] = std::move(handler);
  return ok_result();
}

void Network::udp_close(const Endpoint& local) { udp_sockets_.erase(local); }

Result<void> Network::udp_send(const Endpoint& from, const Endpoint& to, Bytes payload) {
  return udp_send(from, to, make_payload(std::move(payload)));
}

Result<void> Network::udp_send(const Endpoint& from, const Endpoint& to, PayloadPtr payload) {
  if (auto r = check_host(from.host); !r.ok()) return r;
  udp_datagrams_.inc();
  SegmentId seg = common_segment(from.host, to.host);
  if (!seg.valid()) {
    return make_error(Errc::disconnected,
                      "no shared segment between " + from.host + " and " + to.host);
  }
  send_frame(
      seg, from.host, payload->size(),
      [this, from, to, payload]() {
        auto it = udp_sockets_.find(to);
        if (it != udp_sockets_.end()) it->second(from, *payload);
      },
      /*lossless=*/false);
  return ok_result();
}

Result<void> Network::join_group(const std::string& host, const std::string& group) {
  auto h = hosts_.find(host);
  if (h == hosts_.end()) return make_error(Errc::not_found, "no such host: " + host);
  h->second.groups.insert(group);
  return ok_result();
}

void Network::leave_group(const std::string& host, const std::string& group) {
  auto h = hosts_.find(host);
  if (h != hosts_.end()) h->second.groups.erase(group);
}

Result<void> Network::udp_multicast(const Endpoint& from, const std::string& group,
                                    std::uint16_t port, Bytes payload) {
  return udp_multicast(from, group, port, make_payload(std::move(payload)));
}

Result<void> Network::udp_multicast(const Endpoint& from, const std::string& group,
                                    std::uint16_t port, PayloadPtr payload) {
  if (auto r = check_host(from.host); !r.ok()) return r;
  udp_multicast_sends_.inc();
  const Host& sender = hosts_.at(from.host);

  // Collect receivers: every group member sharing a segment with the sender.
  std::vector<std::string> receivers;
  for (SegmentId seg : sender.segments) {
    for (const std::string& host : segments_.at(seg).hosts) {
      const Host& h = hosts_.at(host);
      if (h.groups.count(group) == 0) continue;
      if (std::find(receivers.begin(), receivers.end(), host) == receivers.end()) {
        receivers.push_back(host);
      }
    }
  }
  if (receivers.empty()) return ok_result();

  // One frame per segment the sender occupies (broadcast medium): every receiver
  // on that segment hears the same transmission.
  for (SegmentId seg : sender.segments) {
    std::vector<std::string> on_segment;
    for (const std::string& host : receivers) {
      if (segments_.at(seg).hosts.count(host) != 0) on_segment.push_back(host);
    }
    if (on_segment.empty()) continue;
    send_frame(
        seg, from.host, payload->size(),
        [this, from, port, on_segment, payload]() {
          for (const std::string& host : on_segment) {
            auto it = udp_sockets_.find(Endpoint{host, port});
            if (it != udp_sockets_.end()) it->second(from, *payload);
          }
        },
        /*lossless=*/false);
  }
  return ok_result();
}

// --- streams -------------------------------------------------------------------

Result<void> Network::listen(const Endpoint& local, AcceptHandler handler) {
  if (auto r = check_host(local.host); !r.ok()) return r;
  if (listeners_.count(local) != 0) {
    return make_error(Errc::already_exists, "listener in use: " + local.to_string());
  }
  listeners_[local] = std::move(handler);
  return ok_result();
}

void Network::stop_listening(const Endpoint& local) { listeners_.erase(local); }

std::uint16_t Network::allocate_ephemeral_port(const std::string& host) {
  // Simple rolling allocation; collisions with bound sockets are implausible in
  // simulation scale but we still skip occupied endpoints.
  for (int attempts = 0; attempts < 16384; ++attempts) {
    std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535 ? 49152 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    Endpoint ep{host, port};
    if (udp_sockets_.count(ep) == 0 && listeners_.count(ep) == 0) return port;
  }
  return 0;
}

Result<StreamPtr> Network::connect(const std::string& host, const Endpoint& remote) {
  if (auto r = check_host(host); !r.ok()) return r.error();
  SegmentId seg = common_segment(host, remote.host);
  if (!seg.valid()) {
    return make_error(Errc::disconnected,
                      "no shared segment between " + host + " and " + remote.host);
  }
  if (faults_->partitioned(seg)) {
    return make_error(Errc::disconnected,
                      "segment partitioned: " + segments_.at(seg).spec.name);
  }
  auto listener = listeners_.find(remote);
  if (listener == listeners_.end()) {
    return make_error(Errc::refused, "connection refused: " + remote.to_string());
  }

  Endpoint local{host, allocate_ephemeral_port(host)};
  StreamPtr client = std::make_shared<Stream>(Stream::Private{}, *this, stream_ids_.next(),
                                              local, remote, seg);
  StreamPtr server = std::make_shared<Stream>(Stream::Private{}, *this, stream_ids_.next(),
                                              remote, local, seg);
  client->set_peer(server->id());
  server->set_peer(client->id());
  register_stream(client);
  register_stream(server);

  // Three-way handshake: 1.5 RTT of segment latency before both ends are up.
  sim::Duration rtt = spec(seg).latency * 2;
  stream_connects_.inc();
  connect_rtt_ns_.observe((rtt + spec(seg).latency).count());
  AcceptHandler accept = listener->second;
  sched_.schedule_after(
      rtt + spec(seg).latency,
      [this, client, server, accept]() {
        server->establish();
        client->establish();
        // A connection reset during the handshake never reaches the listener.
        if (accept && !server->closed()) accept(server);
      },
      {hosts_.at(host).trace_id, sim::tag_id("net.handshake")});
  return client;
}

void Network::register_stream(StreamPtr s) { streams_[s->id()] = std::move(s); }

void Network::forget_stream(StreamId id) { streams_.erase(id); }

Stream* Network::stream(StreamId id) {
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

}  // namespace umiddle::net
