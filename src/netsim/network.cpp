#include "netsim/network.hpp"

#include <algorithm>

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
  loopback_ = add_segment({.name = "loopback", .bandwidth_bps = 1e9,
                           .latency = sim::microseconds(5), .shared_medium = false,
                           .frame_overhead = 0, .preamble = 0, .mtu_payload = 65536});

  // Sample scheduler counters, segment stats, and stream backlog into gauges at
  // snapshot time. Segments iterate in id order, so gauge registration order —
  // and with it snapshot layout — is deterministic.
  metrics_.add_collector([this] {
    auto set = [this](const std::string& name, auto value) {
      metrics_.gauge(name).set(static_cast<std::int64_t>(value));
    };
    set("sim.events_dispatched", sched_.events_dispatched());
    set("sim.pending_events", sched_.pending());
    set("sim.cancellations_reaped", sched_.cancellations_reaped());
    set("sim.heap_high_water", sched_.heap_high_water());
    set("net.stream.backlog_high_water", stream_backlog_high_water_);
    for (const auto& [id, seg] : segments_) {
      const std::string prefix = "net.seg" + id.to_string() + "." + seg.spec.name + ".";
      set(prefix + "frames", seg.stats.frames);
      set(prefix + "payload_bytes", seg.stats.payload_bytes);
      set(prefix + "wire_bytes", seg.stats.wire_bytes);
      set(prefix + "dropped", seg.stats.dropped);
      set(prefix + "busy_ns", seg.stats.busy_time.count());
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
  if (!host_ids_.emplace(name, static_cast<HostId>(hosts_.size())).second) {
    return make_error(Errc::already_exists, "host exists: " + name);
  }
  hosts_.emplace_back(name);
  return ok_result();
}

Result<void> Network::attach(const std::string& host, SegmentId segment) {
  auto id = resolve(host);
  if (!id.ok()) return id.error();
  auto s = segments_.find(segment);
  if (s == segments_.end()) return make_error(Errc::not_found, "no such segment");
  hosts_[id.value()].segments.insert(segment);
  routes_.clear();
  return ok_result();
}

const SegmentStats& Network::stats(SegmentId segment) const { return segments_.at(segment).stats; }

const SegmentSpec& Network::spec(SegmentId segment) const { return segments_.at(segment).spec; }

Result<HostId> Network::resolve(const std::string& name) const {
  auto it = host_ids_.find(name);
  if (it == host_ids_.end()) return make_error(Errc::not_found, "no such host: " + name);
  return it->second;
}

SegmentId Network::common_segment(HostId a, HostId b) const {
  if (a == b) return loopback_;
  for (SegmentId seg : hosts_[a].segments) {
    if (hosts_[b].segments.count(seg) != 0) return seg;
  }
  return SegmentId{};
}

sim::TimePoint Network::send_frame(SegmentId seg_id, HostId src, std::size_t payload_size,
                                   sim::Callback&& deliver, bool lossless) {
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
    auto& nic = hosts_[src].nic_busy_until[seg_id];
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
                     {hosts_[src].trace_id, sim::tag_id("net.deliver")});
  return arrival;
}

// --- datagrams ---------------------------------------------------------------

Result<UdpSocket> Network::udp_bind(const Endpoint& local, DatagramHandler handler) {
  auto id = resolve(local.host);
  if (!id.ok()) return id.error();
  if (!hosts_[id.value()].sockets.emplace(local.port, std::move(handler)).second) {
    return make_error(Errc::already_exists, "udp endpoint in use: " + local.to_string());
  }
  return UdpSocket{id.value(), local.port};
}

Result<void> Network::udp_send(UdpSocket from, UdpSocket to, PayloadPtr payload) {
  udp_datagrams_.inc();
  const SegmentId seg = common_segment(from.host, to.host);
  if (!seg.valid()) {
    return make_error(Errc::disconnected, "no shared segment between " + hosts_[from.host].name +
                                              " and " + hosts_[to.host].name);
  }
  send_frame(
      seg, from.host, payload->size(),
      [this, from, to, payload]() { hosts_[to.host].deliver(to.port, from, *payload); },
      /*lossless=*/false);
  return ok_result();
}

GroupId Network::group(const std::string& name) {
  return group_ids_.emplace(name, static_cast<GroupId>(group_ids_.size())).first->second;
}

Result<void> Network::join_group(const std::string& host, const std::string& name) {
  auto id = resolve(host);
  if (!id.ok()) return id.error();
  std::vector<GroupId>& groups = hosts_[id.value()].groups;
  if (const GroupId g = group(name); std::ranges::count(groups, g) == 0) groups.push_back(g);
  routes_.clear();
  return ok_result();
}

void Network::leave_group(const std::string& host, const std::string& name) {
  if (auto id = resolve(host); id.ok()) std::erase(hosts_[id.value()].groups, group(name));
  routes_.clear();
}

const Network::Route& Network::route(HostId sender, GroupId group) {
  for (const Route& r : routes_) {
    if (r.sender == sender && r.group == group) return r;
  }
  // One frame per segment the sender occupies (broadcast medium), receivers
  // in the delivery order of DESIGN.md §8.5.
  Route route{sender, group, {}};
  std::vector<HostId> receivers;  // in order of first appearance
  for (SegmentId seg : hosts_[sender].segments) {
    auto on = [&](HostId h) { return hosts_[h].segments.count(seg) != 0; };
    for (const auto& [name, h] : host_ids_) {  // host-name order
      if (!on(h) || std::ranges::count(receivers, h) != 0) continue;
      if (std::ranges::count(hosts_[h].groups, group) != 0) receivers.push_back(h);
    }
    auto on_segment = std::make_shared<std::vector<HostId>>();
    std::ranges::copy_if(receivers, std::back_inserter(*on_segment), on);
    if (!on_segment->empty()) route.frames.emplace_back(seg, std::move(on_segment));
  }
  return routes_.emplace_back(std::move(route));
}

Result<void> Network::udp_multicast(UdpSocket from, GroupId group, std::uint16_t port,
                                    PayloadPtr payload) {
  udp_multicast_sends_.inc();
  for (const auto& [seg, on_segment] : route(from.host, group).frames) {
    send_frame(
        seg, from.host, payload->size(),
        [this, from, port, receivers = on_segment, payload]() {
          for (HostId to : *receivers) hosts_[to].deliver(port, from, *payload);
        },
        /*lossless=*/false);
  }
  return ok_result();
}

// --- streams -------------------------------------------------------------------

Result<void> Network::listen(const Endpoint& local, AcceptHandler handler) {
  auto id = resolve(local.host);
  if (!id.ok()) return id.error();
  if (!hosts_[id.value()].listeners.emplace(local.port, std::move(handler)).second) {
    return make_error(Errc::already_exists, "listener in use: " + local.to_string());
  }
  return ok_result();
}

void Network::stop_listening(const Endpoint& local) {
  if (auto id = resolve(local.host); id.ok()) hosts_[id.value()].listeners.erase(local.port);
}

std::uint16_t Network::allocate_ephemeral_port(HostId host) {
  const Host& h = hosts_[host];
  for (int attempts = 0; attempts < 16384; ++attempts) {
    std::uint16_t p = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535 ? 49152 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    if (h.sockets.count(p) + h.listeners.count(p) + h.stream_ports.count(p) == 0) return p;
  }
  return 0;
}

Result<StreamPtr> Network::connect(const std::string& host, const Endpoint& remote) {
  auto src = resolve(host);
  if (!src.ok()) return src.error();
  auto dst = resolve(remote.host);
  SegmentId seg = dst.ok() ? common_segment(src.value(), dst.value()) : SegmentId{};
  if (!seg.valid()) {
    return make_error(Errc::disconnected,
                      "no shared segment between " + host + " and " + remote.host);
  }
  if (faults_->partitioned(seg)) {
    return make_error(Errc::disconnected, "segment partitioned: " + spec(seg).name);
  }
  auto listener = hosts_[dst.value()].listeners.find(remote.port);
  if (listener == hosts_[dst.value()].listeners.end()) {
    return make_error(Errc::refused, "connection refused: " + remote.to_string());
  }
  Endpoint local{host, allocate_ephemeral_port(src.value())};
  if (local.port == 0) return make_error(Errc::buffer_overflow, "no ephemeral port on " + host);

  StreamPtr client = std::make_shared<Stream>(Stream::Private{}, *this, stream_ids_.next(),
                                              local, remote, src.value(), dst.value(), seg);
  StreamPtr server = std::make_shared<Stream>(Stream::Private{}, *this, stream_ids_.next(),
                                              remote, local, dst.value(), src.value(), seg);
  client->set_peer(server->id());
  server->set_peer(client->id());
  register_stream(client);
  register_stream(server);

  // Three-way handshake: 1.5 RTT of segment latency before both ends are up.
  const sim::Duration handshake = spec(seg).latency * 3;
  stream_connects_.inc();
  connect_rtt_ns_.observe(handshake.count());
  sched_.schedule_after(
      handshake,
      [client, server, accept = listener->second]() {
        server->establish();
        client->establish();
        // A connection reset during the handshake never reaches the listener.
        if (accept && !server->closed()) accept(server);
      },
      {hosts_[src.value()].trace_id, sim::tag_id("net.handshake")});
  return client;
}

void Network::register_stream(StreamPtr s) {
  hosts_[s->host_].stream_ports.insert(s->local().port);
  streams_[s->id()] = std::move(s);
}

void Network::forget_stream(StreamId id) {
  if (auto node = streams_.extract(id); !node.empty()) {
    std::multiset<std::uint16_t>& ports = hosts_[node.mapped()->host_].stream_ports;
    ports.erase(ports.find(node.mapped()->local().port));
  }
}

Stream* Network::stream(StreamId id) {
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

}  // namespace umiddle::net
