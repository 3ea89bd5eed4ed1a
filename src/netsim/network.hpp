// Deterministic network simulator.
//
// Substitutes for the paper's physical testbed (three ThinkPads on a 10 Mbps
// Ethernet hub, Bluetooth dongles, mote radios). Hosts attach to *segments* —
// physical media with bandwidth, propagation latency, framing overhead, an optional
// shared-medium (half-duplex hub) constraint, and probabilistic loss. On top of
// frames the simulator offers:
//
//   * datagrams (UDP-like, with multicast groups)  — SSDP, directory advertisements
//   * streams   (TCP-like, connection oriented)    — HTTP/SOAP, RMI, MB, UMTP
//
// Two hosts can exchange traffic only if they share a segment; bridging across
// segments is exactly what uMiddle itself provides at the application layer — this
// mirrors the paper's "different physical transports" argument (§2.2.4).
//
// All timing is virtual (sim::Scheduler), so benchmark results are reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace umiddle::net {

struct SegmentTag {};
using SegmentId = Id<SegmentTag>;
/// Index in the Network's host table; names resolve to it at the API (DESIGN.md §8.5).
using HostId = std::uint32_t;
/// A multicast group name interned by Network::group (DESIGN.md §8.5).
using GroupId = std::uint32_t;

/// A bound datagram socket: its host resolved once, at udp_bind (DESIGN.md §8.5).
/// A datagram's sender reaches its handler as one.
struct UdpSocket {
  HostId host = 0;
  std::uint16_t port = 0;

  bool operator==(const UdpSocket&) const = default;
};

/// host:port address of a socket.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  bool operator==(const Endpoint&) const = default;
  std::string to_string() const { return host + ":" + std::to_string(port); }
};

/// Physical-medium parameters of a segment.
struct SegmentSpec {
  std::string name = "segment";
  /// Raw signalling rate in bits per second.
  double bandwidth_bps = 10e6;
  /// One-way propagation + forwarding latency.
  sim::Duration latency = sim::microseconds(100);
  /// Half-duplex shared medium (hub, radio): one transmission at a time.
  bool shared_medium = true;
  /// Extra fraction of a frame's serialization time charged when the medium
  /// was busy at enqueue; approximates CSMA/CD (or radio) contention backoff.
  double contention_overhead = 0.0;
  /// Link+network+transport header bytes added to every frame's wire size.
  std::size_t frame_overhead = 58;
  /// Preamble / inter-frame gap, in byte-times per frame.
  std::size_t preamble = 20;
  /// Largest payload carried by one frame (streams segment to this).
  std::size_t mtu_payload = 1460;
  /// Probability that a frame is dropped (datagrams only; streams re-send).
  double loss = 0.0;
};

/// Cumulative traffic counters for one segment.
struct SegmentStats {
  std::uint64_t frames = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;  ///< payload + overhead + preamble
  std::uint64_t dropped = 0;
  sim::Duration busy_time{0};
};

class Stream;
using StreamPtr = std::shared_ptr<Stream>;
class FaultPlane;

using DatagramHandler = std::function<void(UdpSocket from, const Bytes& payload)>;
using AcceptHandler = std::function<void(StreamPtr stream)>;

/// The simulated internetwork: segments, hosts, sockets, streams.
class Network {
 public:
  explicit Network(sim::Scheduler& sched, std::uint64_t seed = 1);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  sim::Scheduler& scheduler() { return sched_; }

  // Per-world state: telemetry, the fault plane, the seeded Rng and the node
  // ordinal live here, never in process globals, or a second same-seed run in
  // the same process would observe different values (sim/audit.hpp).

  /// Telemetry (DESIGN.md §9). A snapshot-time collector registered in the
  /// constructor samples scheduler counters and per-segment stats, so layers
  /// below obs stay uncoupled from it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Fault injection (DESIGN.md §10): partitions, burst loss, host crashes,
  /// stream resets. Configuring nothing leaves every digest and metrics
  /// snapshot bit-identical to a fault-free build.
  FaultPlane& faults() { return *faults_; }
  /// Protocol-level recovery (e.g. UMTP reconnect jitter) draws from here;
  /// fault-free code draws only send_frame's loss, so the sequence is stable.
  Rng& rng() { return rng_; }
  /// Monotonic ordinal for naming entities (e.g. runtime node ids).
  std::uint64_t next_node_ordinal() { return ++node_ordinals_; }

  SegmentId add_segment(SegmentSpec spec);
  /// Create a host (no segments attached yet). Names must be unique.
  [[nodiscard]] Result<void> add_host(const std::string& name);
  /// Attach an existing host to a segment.
  [[nodiscard]] Result<void> attach(const std::string& host, SegmentId segment);
  bool host_exists(const std::string& name) const { return host_ids_.count(name) != 0; }
  /// For logs and error messages: handles carry no name.
  const std::string& host_name(HostId host) const { return hosts_[host].name; }

  const SegmentStats& stats(SegmentId segment) const;
  const SegmentSpec& spec(SegmentId segment) const;

  // --- datagram service -----------------------------------------------------
  /// Bind a datagram handler; fails if the endpoint is taken. Sends and the
  /// close take the returned handle.
  [[nodiscard]] Result<UdpSocket> udp_bind(const Endpoint& local, DatagramHandler handler);
  void udp_close(UdpSocket socket) { hosts_[socket.host].sockets.erase(socket.port); }
  /// Copy-free unicast: the buffer is referenced, never copied. Fails if
  /// src/dst share no segment.
  [[nodiscard]] Result<void> udp_send(UdpSocket from, UdpSocket to, PayloadPtr payload);
  /// The id of a multicast group name, interned on first use.
  GroupId group(const std::string& name);
  /// Join a multicast group on every segment the host is attached to.
  [[nodiscard]] Result<void> join_group(const std::string& host, const std::string& group);
  void leave_group(const std::string& host, const std::string& group);
  /// Copy-free multicast to every group member sharing a segment with the
  /// sender (including the sender itself if joined and bound — SSDP relies on
  /// loopback); one shared buffer serves every segment and receiver.
  [[nodiscard]] Result<void> udp_multicast(UdpSocket from, GroupId group, std::uint16_t port,
                                           PayloadPtr payload);

  // --- stream service ---------------------------------------------------------
  [[nodiscard]] Result<void> listen(const Endpoint& local, AcceptHandler handler);
  void stop_listening(const Endpoint& local);
  /// Open a connection. The returned stream is not yet connected; set handlers
  /// then wait for on_connected. Fails fast if no shared segment or no listener.
  [[nodiscard]] Result<StreamPtr> connect(const std::string& host, const Endpoint& remote);

 private:
  friend class Stream;
  friend class FaultPlane;
  friend struct NetworkProbe;

  struct Segment {
    SegmentSpec spec;
    SegmentStats stats;
    sim::TimePoint medium_busy_until{0};
  };

  /// A (sender, group) multicast: per sender segment, a shared receiver list.
  struct Route {
    HostId sender;
    GroupId group;
    std::vector<std::pair<SegmentId, std::shared_ptr<const std::vector<HostId>>>> frames;
  };

  struct Host {
    explicit Host(const std::string& n) : name(n), trace_id(sim::host_id(n)) {}
    /// Call as hosts_[id].deliver per receiver: a handler may add hosts.
    void deliver(std::uint16_t port, UdpSocket from, const Bytes& payload) {
      if (auto it = sockets.find(port); it != sockets.end()) it->second(from, payload);
    }
    std::string name;
    std::uint64_t trace_id;  ///< sim::host_id(name), cached for per-frame audit tags
    std::set<SegmentId> segments;
    std::vector<GroupId> groups;
    /// Per-segment NIC availability (full-duplex media serialize per sender).
    std::map<SegmentId, sim::TimePoint> nic_busy_until;
    std::map<std::uint16_t, DatagramHandler> sockets;
    std::map<std::uint16_t, AcceptHandler> listeners;
    std::multiset<std::uint16_t> stream_ports;  ///< local ports of registered streams
  };
  static_assert(std::is_nothrow_move_constructible_v<Host>);  // handlers survive hosts_ growth

  [[nodiscard]] Result<HostId> resolve(const std::string& name) const;  ///< or not_found
  const Route& route(HostId sender, GroupId group);
  /// Schedule delivery of `payload_size` bytes from `src` on `seg`;
  /// `deliver` runs at the arrival time unless the frame is lost.
  /// Returns the arrival time (even if lost, for stats purposes).
  sim::TimePoint send_frame(SegmentId seg, HostId src, std::size_t payload_size,
                            sim::Callback&& deliver, bool lossless);

  /// First segment shared by both hosts, or invalid id.
  SegmentId common_segment(HostId a, HostId b) const;
  /// A port in [49152, 65535] free of `host`'s sockets, listeners and streams, or 0.
  std::uint16_t allocate_ephemeral_port(HostId host);
  void register_stream(StreamPtr s);
  void forget_stream(StreamId id);
  Stream* stream(StreamId id);
  /// Streams report their unsent-byte backlog here after every send().
  void note_stream_backlog(std::size_t queued_bytes) {
    if (queued_bytes > stream_backlog_high_water_) stream_backlog_high_water_ = queued_bytes;
  }

  sim::Scheduler& sched_;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  std::unique_ptr<FaultPlane> faults_;  ///< constructed in the .cpp (incomplete type here)
  std::map<SegmentId, Segment> segments_;
  std::vector<Host> hosts_;  ///< indexed by HostId
  std::map<std::string, HostId> host_ids_;  ///< the one name index, in name order
  std::map<std::string, GroupId> group_ids_;  ///< the one group name index
  /// Built on first use; any membership or topology change clears them all.
  std::vector<Route> routes_;
  std::unordered_map<StreamId, StreamPtr> streams_;
  IdGenerator<SegmentId> segment_ids_;
  IdGenerator<StreamId> stream_ids_;
  SegmentId loopback_;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint64_t node_ordinals_ = 0;
  std::size_t stream_backlog_high_water_ = 0;
  // Hot-path instruments, resolved once (references stay valid: registry deques).
  obs::Counter& udp_datagrams_;
  obs::Counter& udp_multicast_sends_;
  obs::Counter& stream_connects_;
  obs::Histogram& connect_rtt_ns_;
};

}  // namespace umiddle::net
