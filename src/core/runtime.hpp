// The uMiddle runtime: one intermediary translation node (paper §3.2, Fig. 5).
//
// A runtime hosts mappers (which import native devices as translators), the
// directory module (advertisement exchange across runtimes) and the transport
// module (message paths). Multiple runtimes on a network form one intermediary
// semantic space: devices mapped by any of them are usable from all of them.
//
// Typical setup (see examples/quickstart.cpp):
//
//   sim::Scheduler sched;
//   net::Network net(sched);
//   ... create segments and hosts ...
//   core::Runtime h1(sched, net, "host1");
//   h1.add_mapper(std::make_unique<upnp::UpnpMapper>(...));
//   h1.start();
//   sched.run_for(sim::seconds(2));              // let discovery settle
//   auto tvs = h1.directory().lookup(Query().digital_input(MimeType::of("image/jpeg")));
//   h1.transport().connect(camera_port, tvs[0] ...);
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/costmodel.hpp"
#include "core/directory.hpp"
#include "core/mapper.hpp"
#include "core/translator.hpp"
#include "core/transport.hpp"
#include "netsim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace umiddle::core {

struct RuntimeConfig {
  /// UDP port for directory advertisements (shared multicast group).
  std::uint16_t directory_port = 7700;
  /// TCP port the transport module listens on for UMTP peers.
  std::uint16_t umtp_port = 7701;
  /// Multicast group name joined by all runtimes of one semantic space.
  std::string group = "umiddle";
  CostModel costs;
  /// Explicit node id; 0 = assign from a process-wide counter.
  std::uint64_t node_id = 0;

  // --- UMTP session re-establishment (DESIGN.md §10) -------------------------
  // These only matter once the fault plane resets a link; fault-free runs
  // never schedule a reconnect.
  /// First reconnect delay; doubles per failed attempt up to reconnect_cap.
  sim::Duration reconnect_base = sim::milliseconds(100);
  sim::Duration reconnect_cap = sim::seconds(2);
  /// Consecutive failures tolerated before the link (and its buffered frames)
  /// is abandoned.
  int reconnect_max_attempts = 10;
  /// Bytes of frames buffered for a down link before drops begin (translator
  /// graceful degradation: bounded-buffer during the outage, dropped-with-
  /// counter after).
  std::size_t outage_buffer_bytes = 128 * 1024;

  // --- end-to-end delivery contract (DESIGN.md §11) ---------------------------
  // Like the reconnect knobs, these only change behaviour once a fault or a
  // delivery failure occurs; fault-free worlds never touch them.
  /// Bytes of already-sent, unacknowledged frames each link retains for
  /// selective replay after a reset, on top of the stream's own unsent queue
  /// (which is always retained — those bytes are exactly what a reset loses).
  std::size_t retain_buffer_bytes = 128 * 1024;
  /// Consecutive local delivery failures on one destination translator before
  /// its circuit breaker opens (closed → open → half-open probe); 0 disables
  /// the breaker entirely.
  int breaker_failure_threshold = 5;
  /// Delay before an open breaker half-opens for a probe; jittered by up to
  /// half with the world Rng (drawn only on the failure path).
  sim::Duration breaker_probe_delay = sim::milliseconds(500);
};

class Runtime {
 public:
  /// `host` must already exist in `net` and be attached to the segments this
  /// runtime should reach.
  Runtime(sim::Scheduler& sched, net::Network& net, std::string host,
          RuntimeConfig config = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Bind sockets, start directory + transport, then start all mappers.
  [[nodiscard]] Result<void> start();
  /// Withdraw all local translators and stop mappers/sockets.
  void stop();
  /// Simulated process death: the fault plane tears down this host's sockets,
  /// streams and group memberships (net::FaultPlane::crash_host), and all
  /// runtime state is forgotten without byes, FINs or unmap notifications — a
  /// dead process says nothing. Peers learn of the death through directory
  /// soft-state expiry. A later start() models a process restart: mappers
  /// re-discover their devices and re-import them under fresh translator ids.
  void crash();
  bool started() const { return started_; }

  // --- translator management ----------------------------------------------------
  /// Register a translator immediately (no instantiation cost) and advertise it.
  [[nodiscard]] Result<TranslatorId> map(std::unique_ptr<Translator> translator);
  /// Mapper path: charge the Fig. 10 instantiation cost in virtual time, then
  /// map. `done` (optional) receives the assigned id. Returns a ticket for
  /// abandon(). If the runtime stops, crashes or is destroyed first, nothing
  /// is mapped and `done` is not called.
  std::uint64_t instantiate(std::unique_ptr<Translator> translator,
                            std::function<void(Result<TranslatorId>)> done = {});
  /// Drop a pending instantiation: its translator is destroyed now, nothing
  /// is mapped and its `done` is not called. No-op once it mapped.
  void abandon(std::uint64_t ticket) { instantiating_.erase(ticket); }
  [[nodiscard]] Result<void> unmap(TranslatorId id);
  /// Locally hosted translator by id, or nullptr.
  Translator* translator(TranslatorId id);

  void add_mapper(std::unique_ptr<Mapper> mapper);

  // --- modules / context ---------------------------------------------------------
  Directory& directory() { return *directory_; }
  const Directory& directory() const { return *directory_; }
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

  NodeId node() const { return node_; }
  const std::string& host() const { return host_; }
  sim::Scheduler& scheduler() { return sched_; }
  net::Network& network() { return net_; }
  const CostModel& costs() const { return config_.costs; }
  const RuntimeConfig& config() const { return config_; }

  // --- called by translators -------------------------------------------------------
  /// Route a message emitted by a local translator (via Translator::emit).
  [[nodiscard]] Result<void> route_emit(const PortRef& src, Message&& msg);
  /// A translator's input became ready again; resume blocked paths.
  void notify_ready(TranslatorId id);

  /// Globally unique id helper: embeds this node's id in the upper bits.
  std::uint64_t scope_id(std::uint64_t seq) const { return (node_.value() << 32) | seq; }

 private:
  sim::Scheduler& sched_;
  net::Network& net_;
  std::string host_;
  RuntimeConfig config_;
  NodeId node_;
  bool started_ = false;
  std::unique_ptr<Directory> directory_;
  std::unique_ptr<Transport> transport_;
  std::map<TranslatorId, std::unique_ptr<Translator>> translators_;
  std::vector<std::unique_ptr<Mapper>> mappers_;
  std::uint64_t translator_seq_ = 0;
  /// Translators whose instantiation cost is being charged, by ticket. Owned
  /// here, not by the one-shot, so they never outlive their mapper; declared
  /// after mappers_ so they are destroyed first.
  std::map<std::uint64_t, std::unique_ptr<Translator>> instantiating_;
  std::uint64_t instantiation_seq_ = 0;
  /// Guards the instantiation one-shots; reset by stop() and crash().
  sim::Lifetime lifetime_;
};

}  // namespace umiddle::core
