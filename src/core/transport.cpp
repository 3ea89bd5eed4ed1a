#include "core/transport.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/log.hpp"
#include "core/runtime.hpp"
#include "netsim/exchange.hpp"

namespace umiddle::core {

namespace {

using Phase = LinkSession::Sender::Phase;

/// One row per Fate: what accounting a message leaving the transport that way
/// gets (DESIGN.md §11, the fate table; lint rule `one-fate-site`).
struct FateRow {
  std::string_view counter;
  /// The PathStats field it bumps besides messages_dropped, if any.
  std::uint64_t PathStats::*field;
  /// A drop fate: counts in PathStats::messages_dropped and
  /// umtp.messages_dropped.
  bool drop;
  std::string_view instant;
};

constexpr std::array<FateRow, kFateCount> kFates = {{
    {"delivery.blocked", &PathStats::messages_blocked, false, "deliver.blocked"},
    {"delivery.shed_newest", &PathStats::messages_shed, true, "deliver.shed_newest"},
    {"delivery.shed_oldest", &PathStats::messages_shed, true, "deliver.shed_oldest"},
    {"delivery.shed_latest", &PathStats::messages_shed, true, "deliver.shed_latest"},
    {"delivery.expired", &PathStats::messages_expired, false, "deliver.expired"},
    {"delivery.breaker_dropped", nullptr, true, "deliver.quarantined"},
    {"delivery.unmapped", nullptr, true, "deliver.unmapped"},
    {"delivery.no_route", nullptr, true, "deliver.no_route"},
    {"recovery.outage_dropped", nullptr, true, "deliver.outage_dropped"},
    {"delivery.unacked_dropped", nullptr, true, "deliver.unacked_dropped"},
    {"delivery.discarded", nullptr, true, "deliver.discarded"},
}};

/// Counter names, indexed by Transport::Stat.
constexpr std::array<std::string_view, 12> kStats = {
    "delivery.breaker_open", "delivery.breaker_closed", "delivery.breaker_probes",
    "recovery.link_down",    "recovery.giveups",        "recovery.giveup_unacked",
    "delivery.acked_retired", "recovery.reconnects",    "recovery.replays",
    "delivery.resume_gap",   "delivery.resumes",        "delivery.dup_suppressed",
};

}  // namespace

std::string_view fate_counter(Fate fate) { return kFates[static_cast<std::size_t>(fate)].counter; }

Transport::Transport(Runtime& runtime)
    : runtime_(runtime),
      msgs_enqueued_(runtime.network().metrics().counter("umtp.messages_enqueued")),
      msgs_forwarded_(runtime.network().metrics().counter("umtp.messages_forwarded")),
      msgs_dropped_(runtime.network().metrics().counter("umtp.messages_dropped")),
      data_frames_tx_(runtime.network().metrics().counter("umtp.data_frames_tx")),
      data_frames_rx_(runtime.network().metrics().counter("umtp.data_frames_rx")),
      deliver_failures_(runtime.network().metrics().counter("umtp.deliver_failures")),
      translate_ns_(runtime.network().metrics().histogram("umtp.translate_ns",
                                                          obs::latency_bounds_ns())),
      wire_ns_(runtime.network().metrics().histogram("umtp.wire_ns", obs::latency_bounds_ns())),
      span_ids_{runtime.network().tracer().intern(runtime.host()),
                runtime.network().tracer().intern("translate"),
                runtime.network().tracer().intern("wire"),
                runtime.network().tracer().intern("deliver")} {}

sim::TimePoint Transport::now() const { return runtime_.scheduler().now(); }

obs::Tracer& Transport::tracer() { return runtime_.network().tracer(); }

void Transport::bump(Stat stat, std::uint64_t n) {
  static_assert(kStats.size() == kStatCount);
  obs::Counter*& counter = stat_counters_[static_cast<std::size_t>(stat)];
  if (counter == nullptr) {
    counter = &runtime_.network().metrics().counter(kStats[static_cast<std::size_t>(stat)]);
  }
  counter->inc(n);
}

void Transport::retire(Fate fate, PathStats* path, std::uint64_t trace, std::uint64_t n) {
  if (n == 0) return;
  const FateRow& row = kFates[static_cast<std::size_t>(fate)];
  obs::Counter*& counter = fate_counters_[static_cast<std::size_t>(fate)];
  if (counter == nullptr) counter = &runtime_.network().metrics().counter(row.counter);
  counter->inc(n);
  if (path != nullptr && row.field != nullptr) path->*row.field += n;
  if (path != nullptr && row.drop) path->messages_dropped += n;
  if (row.drop) msgs_dropped_.inc(n);
  instant(trace, row.instant);
}

void Transport::instant(std::uint64_t trace, std::uint32_t name) {
  tracer().instant(trace, name, span_ids_.track, now());
}

void Transport::instant(std::uint64_t trace, std::string_view name) {
  instant(trace, tracer().intern(name));
}

sim::Duration Transport::jittered(std::int64_t base_ns) {
  const std::uint64_t jitter =
      runtime_.network().rng().below(static_cast<std::uint64_t>(base_ns / 2 + 1));
  return sim::Duration(base_ns + static_cast<std::int64_t>(jitter));
}

Result<void> Transport::start() {
  if (started_) return ok_result();
  auto r = runtime_.network().listen({runtime_.host(), runtime_.config().umtp_port},
                                     [this](net::StreamPtr s) { accept_peer(std::move(s)); });
  started_ = r.ok();
  return r;
}

void Transport::stop() {
  if (!started_) return;
  runtime_.network().stop_listening({runtime_.host(), runtime_.config().umtp_port});
  teardown(true);
}

void Transport::crash() {
  if (!started_) return;
  // The fault plane already tore down our listener, sockets and streams with
  // no FINs; all that is left is to forget them.
  teardown(false);
}

void Transport::teardown(bool close_streams) {
  // close() fires close handlers synchronously, which mutate these containers;
  // detach them before walking.
  for (auto& [node, link] : std::exchange(links_, {})) {
    // Close open recover spans so the trace stays pairing-balanced.
    tracer().end_span(link.recover_span, now());
    retire(Fate::discarded, nullptr, 0, link.session.unsent_count());
    if (close_streams && link.stream) link.stream->close();
  }
  for (auto& stream : std::exchange(peer_streams_, {})) {
    if (close_streams) stream->close();
  }
  for (auto& [id, path] : paths_) path.queue.discard(fates(nullptr));
  paths_.clear();
  by_source_.clear();
  stalled_ = 0;
  remote_paths_.clear();
  recv_ = {};
  breakers_.clear();
  lifetime_.reset();
  started_ = false;
}

// --- connect / disconnect ------------------------------------------------------

Result<Transport::HostedPort> Transport::find_port(const PortRef& ref,
                                                    const std::string& role) const {
  const TranslatorProfile* profile = runtime_.directory().profile(ref.translator);
  if (profile == nullptr) {
    return make_error(Errc::not_found, "unknown " + role + " translator: " + ref.to_string());
  }
  const PortSpec* port = profile->shape.find(ref.port);
  if (port == nullptr) {
    return make_error(Errc::not_found, "unknown " + role + " port: " + ref.to_string());
  }
  return HostedPort{profile->node, port};
}

Result<Transport::HostedPort> Transport::check_source(const PortRef& src) const {
  auto source = find_port(src, "source");
  if (source.ok() && (source.value().port->kind != PortKind::digital ||
                      source.value().port->direction != Direction::output)) {
    return make_error(Errc::invalid_argument,
                      "source must be a digital output port: " + src.to_string());
  }
  return source;
}

Result<PathId> Transport::connect_impl(const PortRef& src, std::variant<PortRef, Query> dst,
                                       QosPolicy qos) {
  auto source = check_source(src);
  if (!source.ok()) return source.error();
  const PortSpec& src_port = *source.value().port;
  if (const auto* fixed = std::get_if<PortRef>(&dst)) {
    auto found = find_port(*fixed, "destination");
    if (!found.ok()) return found.error();
    const PortSpec* dst_port = found.value().port;
    if (!PortSpec::connectable(src_port, *dst_port)) {
      return make_error(Errc::incompatible,
                        "ports not connectable: " + src.to_string() + " -> " +
                            fixed->to_string() + " (" + src_port.type.to_string() + " -> " +
                            dst_port->type.to_string() + ")");
    }
  }
  const NodeId host = source.value().node;
  if (host != runtime_.node() && (qos.shaped() || qos.bounded() || qos.message_ttl)) {
    // A CONNECT frame carries no QoS policy: the hosting node would install
    // the path unshaped, unbounded and without a TTL.
    return make_error(Errc::invalid_argument,
                      "a QoS policy needs a source hosted on this node: " + src.to_string());
  }

  PathId id(runtime_.scope_id(path_seq_.next().value()));
  if (host == runtime_.node()) {
    install_path(id, src, src_port, std::move(dst), qos);
    return id;
  }

  // The path lives at the node hosting the source translator (paper §3.5);
  // forward the request there as a CONNECT frame.
  NodeLink* link = link_to(host);
  if (link == nullptr) {
    return make_error(Errc::disconnected, "no route to hosting node " + host.to_string());
  }
  link_send(*link, umtp::encode(umtp::Frame{umtp::ConnectFrame{id, src, std::move(dst)}}));
  remote_paths_[id] = host;
  return id;
}

void Transport::install_path(PathId id, const PortRef& src, const PortSpec& src_port,
                             std::variant<PortRef, Query> dst, const QosPolicy& qos) {
  Path path;
  path.id = id;
  path.src = src;
  path.src_port = src_port;
  path.queue = PathQueue(qos);
  if (auto* fixed = std::get_if<PortRef>(&dst)) {
    path.bound.push_back(std::move(*fixed));
  } else {
    path.query_dst = std::move(std::get<Query>(dst));
    for (const TranslatorProfile& profile : runtime_.directory().lookup(*path.query_dst)) {
      bind(path, profile);
    }
  }
  path.stats.bound_destinations = path.bound.size();
  auto [it, fresh] = paths_.try_emplace(id);
  if (!fresh) unlink(it->second);  // a repeated CONNECT replaces the path
  it->second = std::move(path);
  std::vector<Path*>& list = by_source_[src];
  list.insert(std::upper_bound(list.begin(), list.end(), id,
                               [](PathId a, const Path* b) { return a < b->id; }),
              &it->second);
}

void Transport::unlink(const Path& path) {
  if (path.stalled) --stalled_;
  auto source = by_source_.find(path.src);
  std::erase(source->second, &path);
  if (source->second.empty()) by_source_.erase(source);
}

std::map<PathId, Transport::Path>::iterator Transport::erase_path(
    std::map<PathId, Path>::iterator it) {
  it->second.queue.discard(fates(nullptr));
  unlink(it->second);
  return paths_.erase(it);
}

void Transport::bind(Path& path, const TranslatorProfile& profile) {
  for (const PortSpec* in : profile.shape.digital_inputs()) {
    PortRef ref{profile.id, in->name};
    if (ref == path.src) continue;  // never loop a port back into itself
    if (!PortSpec::connectable(path.src_port, *in)) continue;
    if (std::find(path.bound.begin(), path.bound.end(), ref) == path.bound.end()) {
      path.bound.push_back(std::move(ref));
      path.stats.bound_destinations = path.bound.size();
    }
    return;
  }
}

Result<void> Transport::disconnect(PathId id) {
  if (auto path = paths_.find(id); path != paths_.end()) {
    erase_path(path);
    return ok_result();
  }
  auto it = remote_paths_.find(id);
  if (it != remote_paths_.end()) {
    if (NodeLink* link = link_to(it->second); link != nullptr) {
      link_send(*link, umtp::encode(umtp::Frame{umtp::DisconnectFrame{id}}));
    }
    remote_paths_.erase(it);
    return ok_result();
  }
  return make_error(Errc::not_found, "unknown path: " + id.to_string());
}

const PathStats* Transport::stats(PathId id) const {
  auto it = paths_.find(id);
  if (it == paths_.end()) return nullptr;
  it->second.stats.buffered_bytes = it->second.queue.bytes();
  it->second.stats.max_buffered_bytes = it->second.queue.high_water();
  return &it->second.stats;
}

std::vector<PortRef> Transport::bound_destinations(PathId id) const {
  auto it = paths_.find(id);
  return it == paths_.end() ? std::vector<PortRef>{} : it->second.bound;
}

// --- routing ----------------------------------------------------------------------

Result<void> Transport::route(const PortRef& src, Message&& msg) {
  auto source = by_source_.find(src);
  if (source == by_source_.end()) return ok_result();
  // Block-policy admission first, and all-or-nothing: if any Block path's
  // buffer cannot take the whole fan-out, the emit is refused before anything
  // is queued anywhere — a retried emit must never double-deliver to the
  // paths that had room.
  bool bound = false;
  for (Path* path : source->second) {
    if (path->queue.refuses(msg, path->bound.size(), now())) {
      retire(Fate::blocked, &path->stats, msg.trace);
      return make_error(Errc::buffer_overflow,
                        "translation buffer full (Block policy): " + path->id.to_string());
    }
    bound = bound || !path->bound.empty();
  }
  if (!bound) return ok_result();
  // The message moves into the one shared_ptr that every path and
  // destination it fans out to holds.
  const auto shared = std::make_shared<const Message>(std::move(msg));
  for (Path* path : source->second) {
    for (const PortRef& dst : path->bound) {
      if (!path->queue.offer(dst, shared, now(), fates(&path->stats))) continue;
      msgs_enqueued_.inc();
      drain(*path);
    }
  }
  return ok_result();
}

bool Transport::destination_ready(const PortRef& dst) const {
  const TranslatorProfile* profile = runtime_.directory().profile(dst.translator);
  if (profile == nullptr) return true;  // will be dropped at dispatch
  if (profile->node == runtime_.node()) {
    // Local delivery: honour the translator's backpressure signal.
    // (const_cast-free lookup: Runtime::translator is non-const only.)
    Translator* t = const_cast<Runtime&>(runtime_).translator(dst.translator);
    return t == nullptr || t->ready(dst.port);
  }
  // Remote delivery: pause while the link's unsent backlog is high.
  auto it = links_.find(profile->node);
  if (it == links_.end() || it->second.session.phase() != Phase::up) return true;  // ledger absorbs
  return it->second.stream->pending() < kLinkWatermark;
}

void Transport::drain(Path& path) {
  if (path.drain_scheduled) return;
  const PathQueue::Next next = path.queue.next(
      now(), [this](const PortRef& dst) { return destination_ready(dst); }, fates(&path.stats));
  if (next.stalled != path.stalled) {
    path.stalled = next.stalled;
    stalled_ = next.stalled ? stalled_ + 1 : stalled_ - 1;
  }
  if (next.wait > sim::Duration(0)) {
    path.drain_scheduled = true;
    runtime_.scheduler().schedule_after(
        next.wait,
        lifetime_.guard([this, id = path.id]() {
          auto it = paths_.find(id);
          if (it == paths_.end()) return;
          it->second.drain_scheduled = false;
          drain(it->second);
        }),
        {sim::host_id(runtime_.host()), sim::tag_id("umtp.drain")});
    return;
  }
  // Idle, or stalled until notify_ready or a link drain resumes the path.
  if (next.taken == nullptr) return;

  // Translation is serialized per path: charge the marshal/unmarshal cost in
  // virtual time, deliver, then continue draining. The message waits in the
  // queue's translation slot, so erasing the path or stopping the transport
  // meanwhile retires it as discarded.
  sim::Duration cost = runtime_.costs().translation_cost(next.taken->msg->payload.size());
  path.drain_scheduled = true;
  PathId id = path.id;
  const std::uint64_t span =
      tracer().begin_span(next.taken->msg->trace, span_ids_.translate, span_ids_.track, now());
  translate_ns_.observe(cost.count());
  runtime_.scheduler().schedule_after(
      cost,
      [this, alive = lifetime_.token(), &tracer = tracer(), &sched = runtime_.scheduler(), id,
       span]() {
        // Close the span first: the translation work happened even if the path
        // was disconnected, or this transport stopped or destroyed, mid-flight
        // (span-pairing invariant, tests/obs_test). The tracer and scheduler
        // are world state and outlive the runtime.
        tracer.end_span(span, sched.now());
        if (!*alive) return;  // stop() or crash() discarded the message
        auto it = paths_.find(id);
        if (it == paths_.end()) return;  // gone: disconnect() discarded the message
        Path& path = it->second;
        path.drain_scheduled = false;
        // The deadline may have passed while the translation cost was charged.
        if (auto item = path.queue.finish(now(), fates(&path.stats))) dispatch(path, *item);
        auto again = paths_.find(id);  // dispatch may mutate the path table
        if (again != paths_.end()) drain(again->second);
      },
      {sim::host_id(runtime_.host()), sim::tag_id("umtp.translate")});
}

void Transport::dispatch(Path& path, const PathQueue::Item& item) {
  const TranslatorProfile* profile = runtime_.directory().profile(item.dst.translator);
  if (profile == nullptr) {
    retire(Fate::unmapped, &path.stats, item.msg->trace);
    return;
  }
  if (profile->node == runtime_.node()) {
    deliver(item.dst, *item.msg, &path.stats);
    return;
  }
  NodeLink* link = link_to(profile->node);
  if (link == nullptr) {
    retire(Fate::no_route, &path.stats, item.msg->trace);
    return;
  }
  path.stats.messages_forwarded += 1;
  path.stats.bytes_forwarded += item.msg->payload.size();
  msgs_forwarded_.inc();
  // The wire span opens here (frame handed to the link, handshake wait and
  // outbox time included) and is closed by the receiving transport when it
  // decodes the DATA frame. The trace id travels side-band as tracer baggage
  // keyed by our client stream id — never inside the frame, whose byte count
  // drives simulated serialization time (obs/trace.hpp header comment).
  data_frames_tx_.inc();
  if (link->session.travels_plain()) {
    const std::uint64_t span =
        tracer().begin_span(item.msg->trace, span_ids_.wire, span_ids_.track, now());
    tracer().stage(link->stream->id().value(), item.msg->trace, span);
  }
  // else: a recovery replays the frame SEQ-wrapped on a *new* stream, where
  // baggage staged now would never pair: replayed frames lose trace
  // attribution (documented in DESIGN.md §10).
  link_send(*link, umtp::encode_data(item.dst, *item.msg, item.deadline_ns), item.deadline_ns,
            item.msg->trace);
}

void Transport::deliver(const PortRef& dst, const Message& msg, PathStats* path) {
  Translator* t = runtime_.translator(dst.translator);
  if (t == nullptr) {
    log::Entry(log::Level::warn, "transport") << "deliver to unknown translator "
                                              << dst.to_string();
    retire(Fate::unmapped, path, msg.trace);
    return;
  }
  if (auto b = breakers_.find(dst.translator);
      b != breakers_.end() && b->second.state == Breaker::State::open) {
    // Quarantined: the destination's native side keeps failing; fail fast
    // instead of soaking retries until the half-open probe clears it.
    retire(Fate::quarantined, path, msg.trace);
    return;
  }
  if (path != nullptr) {
    path->messages_forwarded += 1;
    path->bytes_forwarded += msg.payload.size();
    msgs_forwarded_.inc();
  }
  instant(msg.trace, span_ids_.deliver);
  if (auto r = t->deliver(dst.port, msg); !r.ok()) {
    deliver_failures_.inc();
    breaker_record(dst.translator, false);
    log::Entry(log::Level::warn, "transport")
        << "deliver to " << dst.to_string() << " failed: " << r.error().to_string();
  } else {
    breaker_record(dst.translator, true);
  }
}

void Transport::resume_paths() {
  // A path with queued items and no drain scheduled has stalled: route()
  // drains after every offer and a translation drains after it dispatches.
  if (stalled_ == 0) return;
  for (auto& [id, path] : paths_) drain(path);
}

// --- circuit breaker -----------------------------------------------------------

void Transport::breaker_record(TranslatorId id, bool ok) {
  if (runtime_.config().breaker_failure_threshold <= 0) return;  // disabled
  if (ok) {
    auto it = breakers_.find(id);
    if (it == breakers_.end()) return;
    if (it->second.state == Breaker::State::half_open) {
      bump(Stat::breaker_closed);
      log::Entry(log::Level::info, "transport")
          << "breaker for " << id.to_string() << " closed after successful probe";
    }
    breakers_.erase(it);  // any success fully resets the destination
    return;
  }
  Breaker& b = breakers_.try_emplace(id, *this, id).first->second;
  b.failures += 1;
  if (b.state == Breaker::State::half_open ||
      (b.state == Breaker::State::closed &&
       b.failures >= runtime_.config().breaker_failure_threshold)) {
    open_breaker(id, b);
  }
}

void Transport::open_breaker(TranslatorId id, Breaker& breaker) {
  breaker.state = Breaker::State::open;
  breaker.failures = 0;
  bump(Stat::breaker_open);
  instant(0, "deliver.breaker-open");
  log::Entry(log::Level::warn, "transport")
      << "breaker for " << id.to_string() << " opened after "
      << runtime_.config().breaker_failure_threshold << " consecutive delivery failures";
  // Half-open after a jittered delay. The Rng draw happens only here, on the
  // failure path, so breaker-free worlds draw nothing.
  breaker.probe.arm(jittered(runtime_.config().breaker_probe_delay.count()));
}

Transport::Breaker::Breaker(Transport& transport, TranslatorId id)
    : probe(transport.runtime_.scheduler(),
            {sim::host_id(transport.runtime_.host()), sim::tag_id("umtp.breaker")},
            [&transport, id]() {
              // Armed only while open; nothing else leaves the open state.
              transport.breakers_.at(id).state = State::half_open;
              transport.bump(Stat::breaker_probes);
            }) {}

// --- directory reactions ------------------------------------------------------------

void Transport::on_mapped(const TranslatorProfile& profile) {
  for (auto& [id, path] : paths_) {
    if (path.query_dst && matches(*path.query_dst, profile)) bind(path, profile);
  }
}

void Transport::on_unmapped(const TranslatorProfile& profile) {
  // Paths whose source vanished are torn down entirely.
  for (auto it = paths_.begin(); it != paths_.end();) {
    it = it->second.src.translator == profile.id ? erase_path(it) : std::next(it);
  }
  // Unbind the translator's ports everywhere and drop queued messages to it.
  for (auto& [id, path] : paths_) {
    std::erase_if(path.bound, [&](const PortRef& ref) { return ref.translator == profile.id; });
    path.stats.bound_destinations = path.bound.size();
    path.queue.unbind(profile.id, fates(&path.stats));
  }
  // The translator is gone; a recycled id must start with a clean slate.
  breakers_.erase(profile.id);
}

// --- UMTP plumbing ---------------------------------------------------------------------

Transport::NodeLink* Transport::link_to(NodeId node) {
  auto it = links_.find(node);
  if (it != links_.end()) return &it->second;  // possibly down or recovering

  const RuntimeConfig& c = runtime_.config();
  NodeLink fresh{node, nullptr, 0,
                 LinkSession::Sender({c.reconnect_base.count(), c.reconnect_cap.count(),
                                      c.reconnect_max_attempts, c.outage_buffer_bytes,
                                      c.retain_buffer_bytes})};
  // Initial connects keep their pre-fault-plane semantics: an unreachable peer
  // yields no link and the caller drops the message. Only links that were once
  // up and got *reset* enter the reconnect loop below.
  if (!open_stream(fresh)) return nullptr;
  return &links_.emplace(node, std::move(fresh)).first->second;
}

bool Transport::open_stream(NodeLink& link) {
  const NodeInfo* info = runtime_.directory().node_info(link.node);
  if (info == nullptr) return false;
  auto stream = runtime_.network().connect(runtime_.host(), {info->host, info->umtp_port});
  if (!stream.ok()) {
    log::Entry(log::Level::warn, "transport")
        << "cannot reach node " << link.node.to_string() << ": " << stream.error().to_string();
    return false;
  }
  NodeId node = link.node;
  link.stream = stream.value();
  link.session.open(link.stream->id().value());
  link.stream->on_connected([this, node]() { handle_link_up(node); });
  link.stream->on_drain([this]() { resume_paths(); });
  link.stream->on_close([this, node]() { handle_link_close(node); });
  // ACKs come back on this (client) stream; fault-free links never carry any.
  net::Stream* raw = link.stream.get();
  link.stream->on_data(net::frames<umtp::Reader>(*raw, [this, node, raw](umtp::Frame& frame) {
    auto l = links_.find(node);
    if (l == links_.end() || l->second.stream.get() != raw) return;  // stale stream
    if (auto* ack = std::get_if<umtp::AckFrame>(&frame)) {
      handle_ack(l->second, *ack);
    } else {
      log::Entry(log::Level::warn, "transport") << "unexpected frame type on link stream";
    }
  }));
  return true;
}

void Transport::handle_link_up(NodeId node) {
  auto l = links_.find(node);
  if (l == links_.end()) return;
  NodeLink& link = l->second;
  for (const PayloadPtr& frame : link.session.up(runtime_.node())) (void)link.stream->send(frame);
  link.session.trim(link.stream->pending());
}

void Transport::handle_link_close(NodeId node) {
  auto l = links_.find(node);
  if (l == links_.end()) return;
  NodeLink& link = l->second;
  if (!started_ || link.session.phase() == Phase::down || !link.stream->was_reset()) {
    // Graceful close (peer stop, a poisoned stream, or our own): drop the
    // link and whatever it never sent.
    runtime_.scheduler().post(lifetime_.guard([this, node]() { drop_link(node, Fate::discarded); }),
                              {sim::host_id(runtime_.host()), sim::tag_id("umtp.link-close")});
    return;
  }
  // Fault path: hold the link, buffer traffic, re-establish with backoff. The
  // reset stream delivers nothing more, so baggage staged on it is dead and
  // its wire spans end now.
  tracer().forget(link.stream->id().value(), now());
  link.stream = nullptr;
  retry_link(link);
}

void Transport::retry_link(NodeLink& link) {
  const LinkSession::Sender::Retry retry = link.session.reset();
  if (retry.recovery_begins) {
    bump(Stat::link_down);
    // Trace 0 = unattributed: the outage is not part of any one message path.
    link.recover_span = tracer().begin_span(0, "recover", runtime_.host(), now());
  }
  if (retry.give_up()) {
    // Only never-sent frames are outage drops: the sent-but-unacked prefix
    // may well have been delivered before the cut, so its fate is uncertain
    // and it is counted apart, as no fate.
    const NodeId node = link.node;
    const std::size_t unsent = link.session.unsent_count();
    bump(Stat::giveups);
    bump(Stat::giveup_unacked, link.session.sent_count());
    drop_link(node, Fate::outage_dropped);
    log::Entry(log::Level::warn, "transport")
        << "giving up on node " << node.to_string() << " after "
        << runtime_.config().reconnect_max_attempts << " attempts; " << unsent
        << " buffered frame(s) dropped";
    return;
  }
  runtime_.scheduler().schedule_after(
      jittered(retry.backoff_ns),
      lifetime_.guard([this, node = link.node]() {
        auto l = links_.find(node);
        // Gone (given up), or already re-opened.
        if (l == links_.end() || l->second.session.phase() != Phase::down) return;
        // On success the handshake is in flight and lands in handle_link_up;
        // if the fault plane resets the new stream mid-handshake,
        // handle_link_close schedules the next attempt.
        if (!open_stream(l->second)) retry_link(l->second);
      }),
      {sim::host_id(runtime_.host()), sim::tag_id("umtp.reconnect")});
}

void Transport::drop_link(NodeId node, Fate fate) {
  auto l = links_.find(node);
  if (l == links_.end()) return;
  tracer().end_span(l->second.recover_span, now());
  retire(fate, nullptr, 0, l->second.session.unsent_count());
  links_.erase(l);
}

void Transport::link_send(NodeLink& link, Bytes bytes, std::int64_t deadline_ns,
                          std::uint64_t trace) {
  PayloadPtr frame = make_payload(std::move(bytes));
  const LinkSession::Sender::Push push = link.session.push(frame, deadline_ns);
  if (push == LinkSession::Sender::Push::refuse) retire(Fate::outage_dropped, nullptr, trace);
  if (push != LinkSession::Sender::Push::write) return;
  (void)link.stream->send(std::move(frame));
  link.session.trim(link.stream->pending());
}

void Transport::handle_ack(NodeLink& link, const umtp::AckFrame& ack) {
  auto acked = link.session.ack(ack.epoch, ack.count, link.stream->id().value(), now().count());
  if (!acked) return;
  retire(Fate::unacked_dropped, nullptr, 0, acked->unacked_dropped);
  if (acked->retired > 0) {
    // Each retired entry is a frame a blind replay would have duplicated.
    bump(Stat::acked_retired, acked->retired);
  }
  if (!acked->resumed) return;
  // Recovery done. Replay SEQ-wrapped: the explicit sequence number lets the
  // receiver suppress whatever the ACK race still let through.
  for (Bytes& frame : acked->replay) (void)link.stream->send(std::move(frame));
  retire(Fate::expired, nullptr, 0, acked->expired);
  bump(Stat::reconnects);
  bump(Stat::replays, acked->replay.size());
  tracer().end_span(link.recover_span, now());
  log::Entry(log::Level::info, "transport")
      << "link to node " << link.node.to_string() << " re-established, "
      << acked->replay.size() << " frame(s) replayed, " << acked->expired << " expired";
  // The peer's soft state may have expired (or gone stale) during the outage:
  // renew our leases immediately instead of waiting for the next refresh tick.
  runtime_.directory().reannounce();
  resume_paths();
}

void Transport::accept_peer(net::StreamPtr stream) {
  peer_streams_.push_back(stream);
  net::Stream* raw = stream.get();
  // The sender stages trace baggage keyed by its own (client) stream id, which
  // is this accepted stream's peer.
  const std::uint64_t channel = stream->peer().value();
  recv_.open(channel);
  stream->on_data(net::frames<umtp::Reader>(*raw, [this, channel, raw](umtp::Frame& frame) {
    handle_frame(frame, channel, *raw);
  }));
  stream->on_close([this, raw, channel]() {
    std::erase_if(peer_streams_, [raw](const net::StreamPtr& s) { return s.get() == raw; });
    // Graceful close: the sender dropped its link, so a future link from the
    // same node starts a fresh sequence space — stale counts must not
    // suppress it. Reset counts survive for the RESUME migration.
    if (!raw->was_reset()) recv_.forget(channel);
    // Nothing more arrives on the stream: drop what frames lost with it
    // staged, and end their wire spans.
    tracer().forget(channel, now());
  });
}

void Transport::handle_frame(umtp::Frame& frame, std::uint64_t channel, net::Stream& reply) {
  if (std::holds_alternative<umtp::AckFrame>(frame)) {
    log::Entry(log::Level::warn, "transport") << "unexpected ACK on accepted stream";
    return;
  }
  if (auto* resume = std::get_if<umtp::ResumeFrame>(&frame)) {
    // Receiver half of the recovery handshake: migrate the dedup count to the
    // new channel and answer with a cumulative ACK.
    const LinkSession::Receiver::Resumed resumed = recv_.resume(*resume, channel);
    if (resumed.gap) {
      // Frames lost to the sender's retention overflow: unrecoverable, counted
      // for observability.
      bump(Stat::resume_gap);
      log::Entry(log::Level::warn, "transport")
          << "RESUME from node " << resume->node.to_string() << ": frames before base seq "
          << resume->base_seq << " lost to retention";
    }
    bump(Stat::resumes);
    // The one place an ACK is born (lint rule `ack-origin`).
    (void)reply.send(
        umtp::encode(umtp::Frame{umtp::AckFrame{resume->epoch, resumed.ack_count}}));
    return;
  }
  // A payload frame the dedup window let through: a plain frame, or a
  // replay's inner frame, decoded by the reader with its envelope.
  const auto receive = [&](auto& payload, bool replayed) {
    using Payload = std::remove_reference_t<decltype(payload)>;
    if constexpr (std::is_same_v<Payload, umtp::DataFrame>) {
      data_frames_rx_.inc();
      // Claim the side-band baggage the sender staged for this DATA frame:
      // close its wire span and re-attach the trace id the frame never
      // carried. Replayed frames have none (their baggage died with the old
      // stream).
      if (!replayed) {
        if (auto staged = tracer().take(channel)) {
          payload.message.trace = staged->trace;
          tracer().end_span(staged->span, now());
          if (staged->span != 0) {
            wire_ns_.observe(tracer().spans()[staged->span - 1].duration().count());
          }
        }
      }
      // Receiver-side deadline check: the wire crossing may have eaten the
      // remaining budget (or the frame sat in an outage buffer).
      if (deadline_passed(payload.message.deadline_ns, now().count())) {
        retire(Fate::expired, nullptr, payload.message.trace);
        return;
      }
      deliver(payload.dst, payload.message, nullptr);
    } else if constexpr (std::is_same_v<Payload, umtp::ConnectFrame>) {
      auto source = check_source(payload.src);
      if (!source.ok() || source.value().node != runtime_.node()) {
        log::Entry(log::Level::warn, "transport")
            << "CONNECT rejected for source " << payload.src.to_string();
        return;
      }
      install_path(payload.path, payload.src, *source.value().port, std::move(payload.dst), {});
    } else if constexpr (std::is_same_v<Payload, umtp::DisconnectFrame>) {
      (void)disconnect(payload.path);
    }
  };
  // Dedup window, for every payload frame (SEQ never wraps ACK or RESUME).
  // Plain frames count implicitly (lossless in-order streams make "frames
  // accepted" == "highest seq delivered"); SEQ-wrapped replays carry their
  // number explicitly and are suppressed when already counted.
  if (auto* seq = std::get_if<umtp::SeqFrame>(&frame)) {
    if (!recv_.accept(channel, seq->seq)) {
      bump(Stat::dup_suppressed);
      instant(0, "deliver.dup-suppressed");
      return;
    }
    std::visit([&](auto& inner) { receive(inner, true); }, seq->frame);
    return;
  }
  recv_.count(channel);
  std::visit([&](auto& plain) { receive(plain, false); }, frame);
}

}  // namespace umiddle::core
