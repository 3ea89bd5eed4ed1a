// The uMiddle transport module (paper §3.2, §3.5, Fig. 7).
//
// Implements message paths between translator ports, locally and across runtime
// nodes (over UMTP streams), including the paper's two connection forms:
//
//   connect(OutputPort src, InputPort dst)  — a fixed path between two ports;
//   connect(Port src, Query dst)            — a *dynamic message path*: the
//       runtime hosting the source port evaluates the template adaptively as
//       translators appear and disappear, binding to every matching
//       translator's compatible input port (dynamic device binding, §3.5).
//
// Each path owns a *translation buffer*: messages wait there while the
// destination is applying backpressure (a slow native protocol, or a congested
// inter-node link). An optional QosPolicy adds token-bucket rate shaping and a
// bounded buffer with a shedding policy — the QoS control the paper names as
// future work (§5.3, §7). Every decision about the buffer is core::PathQueue's
// (core/path_queue.hpp); this module carries out its effects.
//
// A path lives on the node hosting its source translator. connect() calls made
// elsewhere are forwarded there as UMTP CONNECT frames; PathIds embed the
// requesting node, so they are globally unique and can be disconnected from
// anywhere.
//
// On top of link recovery this module implements the end-to-end delivery
// contract (DESIGN.md §11): per-link implicit sequencing with RESUME/ACK-driven
// selective replay and a receiver dedup window (effectively-once across
// resets; the state machine is LinkSession, core/link_session.hpp),
// per-message virtual-time deadlines, and a per-destination circuit breaker.
// All of it is fault-free-invisible: no extra wire bytes, events, Rng draws,
// or metric registrations happen in a world with no faults, deadlines, bounded
// buffers, or delivery failures.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "core/directory.hpp"
#include "core/link_session.hpp"
#include "core/path_queue.hpp"
#include "core/umtp.hpp"
#include "netsim/stream.hpp"
#include "obs/metrics.hpp"
#include "sim/timer.hpp"

namespace umiddle::core {

class Runtime;

/// The per-world counter a fate bumps (Fate: core/path_queue.hpp).
std::string_view fate_counter(Fate fate);

/// Per-path counters, exposed for applications and the QoS ablation bench.
/// Sender-side by construction: a path lives on its source's node.
struct PathStats {
  std::uint64_t messages_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;
  /// Messages that left this path through a drop fate (every fate but
  /// blocked and expired). Superset of messages_shed.
  std::uint64_t messages_dropped = 0;
  /// Messages dropped by the shedding policy of a full bounded buffer.
  std::uint64_t messages_shed = 0;
  /// Messages dropped because their deadline passed before delivery.
  std::uint64_t messages_expired = 0;
  /// Emits refused with would-block by a Block-policy bounded buffer.
  std::uint64_t messages_blocked = 0;
  /// Current translation-buffer occupancy in bytes, as of the stats() call.
  std::size_t buffered_bytes = 0;
  /// High-water mark of the translation buffer, as of the stats() call.
  std::size_t max_buffered_bytes = 0;
  std::size_t bound_destinations = 0;
};

class Transport final : public DirectoryListener {
 public:
  explicit Transport(Runtime& runtime);

  /// Listen for UMTP connections from peer runtimes.
  [[nodiscard]] Result<void> start();
  void stop();
  /// Simulated process death (Runtime::crash): discard all links, paths and
  /// peer streams without closing anything — the fault plane already tore the
  /// sockets down, and a dead process sends no FINs. Open recover spans are
  /// closed so the trace stays pairing-balanced.
  void crash();

  // --- paper Fig. 7 API ---------------------------------------------------------
  // A path with a QoS policy must have its source hosted on this node: the
  // CONNECT frame that forwards a remote-source path carries no policy, so
  // such a connect() fails with Errc::invalid_argument.
  /// (1) Fixed path between an output and an input port. Both translators must
  /// be known to the directory and compatible.
  [[nodiscard]] Result<PathId> connect(const PortRef& src, const PortRef& dst, QosPolicy qos = {}) {
    return connect_impl(src, dst, std::move(qos));
  }
  /// (2) Dynamic message path from a port to every translator matching `dst`,
  /// re-evaluated as translators are mapped and unmapped.
  [[nodiscard]] Result<PathId> connect(const PortRef& src, Query dst, QosPolicy qos = {}) {
    return connect_impl(src, std::move(dst), std::move(qos));
  }
  [[nodiscard]] Result<void> disconnect(PathId path);

  /// Stats for a locally hosted path; nullptr for unknown/remote paths.
  const PathStats* stats(PathId path) const;
  /// Concrete destinations currently bound to a locally hosted path.
  std::vector<PortRef> bound_destinations(PathId path) const;
  std::size_t local_path_count() const { return paths_.size(); }

  // --- runtime-internal ------------------------------------------------------------
  /// A local translator emitted a message from an output port. Fails with
  /// Errc::buffer_overflow (would-block) when a Block-policy path's bounded
  /// buffer is full — admission is all-or-nothing across the emit's paths, so
  /// a retried emit never double-delivers to the paths that had room. The
  /// message moves into the one shared_ptr its paths hold.
  [[nodiscard]] Result<void> route(const PortRef& src, Message&& msg);
  /// A local translator became ready again; resume paths feeding it.
  void notify_ready(TranslatorId) { resume_paths(); }

  // DirectoryListener: keep query paths bound to the live translator population.
  void on_mapped(const TranslatorProfile& profile) override;
  void on_unmapped(const TranslatorProfile& profile) override;

 private:
  struct Path {
    PathId id;
    PortRef src;
    PortSpec src_port;  ///< the source port's spec, cached at connect time
    std::optional<Query> query_dst;  ///< set for dynamic (query) paths
    std::vector<PortRef> bound;
    /// The translation buffer and its QoS policy: every decision about what
    /// waits, sheds, expires or goes next.
    PathQueue queue;
    bool drain_scheduled = false;
    /// The last drain left the front waiting on a destination that was not
    /// ready; counted in stalled_.
    bool stalled = false;
    /// stats() copies the queue's occupancy in.
    mutable PathStats stats;
  };

  /// An outbound link to one peer node. Its lifecycle state lives in the
  /// session (DESIGN.md §10.2); the link holds only the effects' handles.
  struct NodeLink {
    NodeId node;
    net::StreamPtr stream;           ///< null while down
    std::uint64_t recover_span = 0;  ///< open "recover" span while recovering
    LinkSession::Sender session;     ///< lifecycle, send ledger and sequencing
  };

  /// Per-destination circuit breaker (closed → open after K consecutive
  /// delivery failures → half-open probe on a jittered timer).
  struct Breaker {
    Breaker(Transport& transport, TranslatorId id);
    enum class State { closed, open, half_open };
    State state = State::closed;
    int failures = 0;  ///< consecutive failures while closed
    /// Half-opens the open breaker. Erasing the entry cancels it, so a breaker
    /// that closed and re-opened (possibly under a recycled translator id
    /// after a crash) waits out its own probe delay.
    sim::Timer probe;
  };

  /// High-water mark on a link's unsent bytes before paths pause.
  static constexpr std::size_t kLinkWatermark = 64 * 1024;

  sim::TimePoint now() const;
  obs::Tracer& tracer();
  /// The delivery-contract counters that are not fates (kStats names them).
  enum class Stat : std::uint8_t { breaker_open, breaker_closed, breaker_probes, link_down,
                                   giveups, giveup_unacked, acked_retired, reconnects, replays,
                                   resume_gap, resumes, dup_suppressed };
  static constexpr std::size_t kStatCount = static_cast<std::size_t>(Stat::dup_suppressed) + 1;
  /// Bump `stat`'s per-world counter. It registers on the first bump (even of
  /// 0), so counters for faults that never fire stay out of the snapshot.
  void bump(Stat stat, std::uint64_t n = 1);
  /// Account `n` messages leaving through `fate`: its counter, its PathStats
  /// field on `path` (null off-path), umtp.messages_dropped for drop fates,
  /// and a deliver.<fate> instant. `trace` 0 = unattributed (batch fates).
  void retire(Fate fate, PathStats* path, std::uint64_t trace, std::uint64_t n = 1);
  /// The sink a path's queue hands its fates to: retire() against `path`
  /// (null: the path is being erased, stats and all).
  auto fates(PathStats* path) {
    return [this, path](Fate fate, const Message& msg) { retire(fate, path, msg.trace); };
  }
  /// A trace instant on this host, now.
  void instant(std::uint64_t trace, std::uint32_t name);
  void instant(std::uint64_t trace, std::string_view name);
  /// `base_ns` plus uniform jitter of up to half of it, drawn from the world
  /// Rng: deterministic per seed, and it desynchronizes peers that hit the
  /// same fault at the same instant.
  sim::Duration jittered(std::int64_t base_ns);

  /// A port of a translator known to the directory.
  struct HostedPort {
    NodeId node;  ///< node hosting the translator
    const PortSpec* port;
  };

  [[nodiscard]] Result<PathId> connect_impl(const PortRef& src, std::variant<PortRef, Query> dst,
                              QosPolicy qos);
  /// `role` ("source"/"destination") names the port in the not-found error.
  [[nodiscard]] Result<HostedPort> find_port(const PortRef& ref, const std::string& role) const;
  /// find_port, and the port must be a digital output.
  [[nodiscard]] Result<HostedPort> check_source(const PortRef& src) const;
  /// Install a path on this (hosting) node and bind its destinations.
  void install_path(PathId id, const PortRef& src, const PortSpec& src_port,
                    std::variant<PortRef, Query> dst, const QosPolicy& qos);
  /// Take `path` out of its source's list and out of the stall count.
  void unlink(const Path& path);
  /// Discard the path's queue, unlink it and erase it.
  std::map<PathId, Path>::iterator erase_path(std::map<PathId, Path>::iterator it);
  /// Bind the first input port of `profile` connectable from the path's
  /// source, unless already bound.
  void bind(Path& path, const TranslatorProfile& profile);
  /// Stop and crash share this: forget every link, path and peer stream,
  /// closing the streams only on a graceful stop.
  void teardown(bool close_streams);
  /// Let the path's queue retire, wait or take its front; on a take, charge
  /// the translation cost and dispatch when it is paid.
  void drain(Path& path);
  /// True if the destination can accept a message right now.
  bool destination_ready(const PortRef& dst) const;
  /// Hand one message to its destination (after charging translation cost).
  void dispatch(Path& path, const PathQueue::Item& item);
  /// Deliver to a translator on this node through its breaker. `path` is the
  /// local path carrying it; null for a DATA frame received from a peer.
  void deliver(const PortRef& dst, const Message& msg, PathStats* path);

  // --- circuit breaker -------------------------------------------------------
  void breaker_record(TranslatorId id, bool ok);
  void open_breaker(TranslatorId id, Breaker& breaker);

  NodeLink* link_to(NodeId node);
  /// Open (or re-open) the UMTP stream for a link and install its handlers.
  /// False if the peer is unknown or unreachable right now.
  bool open_stream(NodeLink& link);
  void handle_link_up(NodeId node);
  void handle_link_close(NodeId node);
  /// The link's stream was reset, or a reconnect attempt could not open one:
  /// arm the jittered backoff the session asks for, then the next attempt; or
  /// give the link up.
  void retry_link(NodeLink& link);
  /// Erase a link: retire what it never sent as `fate`, and close its
  /// recover span so the trace stays pairing-balanced.
  void drop_link(NodeId node, Fate fate);
  /// `trace` attributes an outage-buffer overflow drop of a DATA frame.
  void link_send(NodeLink& link, Bytes frame, std::int64_t deadline_ns = 0,
                 std::uint64_t trace = 0);
  /// Peer told us its accepted-frame count: account what the session retired
  /// and, if that ended a recovery, replay the rest and close it out
  /// (reconnect bookkeeping, reannounce, resume paths).
  void handle_ack(NodeLink& link, const umtp::AckFrame& ack);
  void accept_peer(net::StreamPtr stream);
  /// `channel` is the sending peer's stream id (Stream::peer() of the accepted
  /// stream) — the tracer baggage channel DATA trace ids arrive on. `reply`
  /// carries ACKs back to the sender (streams are bidirectional). A DATA
  /// frame's message is delivered from the reader's frame, where it was
  /// decoded.
  void handle_frame(umtp::Frame& frame, std::uint64_t channel, net::Stream& reply);
  /// Drain every path, if any is stalled: only a stalled path has work that
  /// a ready destination or a drained link can start (DESIGN.md §8.7).
  void resume_paths();

  friend struct TransportProbe;

  Runtime& runtime_;
  // Per-world instruments (net::Network::metrics), shared across runtimes.
  // Delivery-contract counters (delivery.*) are registered lazily on first
  // fire so fault-free snapshots stay byte-identical.
  obs::Counter& msgs_enqueued_;
  obs::Counter& msgs_forwarded_;
  obs::Counter& msgs_dropped_;
  obs::Counter& data_frames_tx_;
  obs::Counter& data_frames_rx_;
  obs::Counter& deliver_failures_;
  obs::Histogram& translate_ns_;
  obs::Histogram& wire_ns_;
  /// Tracer intern ids (obs::Tracer::intern) of this host's track and of the
  /// phases every message passes, resolved once so spans copy no text.
  struct SpanIds {
    std::uint32_t track, translate, wire, deliver;
  };
  const SpanIds span_ids_;
  /// Each fate's counter, registered on the fate's first retire.
  std::array<obs::Counter*, kFateCount> fate_counters_{};
  /// Each Stat's counter, registered on its first bump.
  std::array<obs::Counter*, kStatCount> stat_counters_{};
  bool started_ = false;
  std::map<PathId, Path> paths_;
  /// Each source's paths in paths_, in ascending PathId: the order a walk of
  /// paths_ meets them, which route() keeps. CONNECT-installed ids come from
  /// the requester's scope, so this is not insertion order.
  std::map<PortRef, std::vector<Path*>> by_source_;
  /// Paths whose `stalled` is set.
  std::size_t stalled_ = 0;
  /// Paths created here but hosted remotely: path → hosting node.
  std::map<PathId, NodeId> remote_paths_;
  std::map<NodeId, NodeLink> links_;
  /// Streams accepted from peers (we read frames from them and answer ACKs).
  std::vector<net::StreamPtr> peer_streams_;
  /// Dedup counts of every inbound link.
  LinkSession::Receiver recv_;
  std::map<TranslatorId, Breaker> breakers_;
  IdGenerator<PathId> path_seq_;
  /// Guards drain, translate, link-close and reconnect one-shots; reset by
  /// stop() and crash().
  sim::Lifetime lifetime_;
};

}  // namespace umiddle::core
