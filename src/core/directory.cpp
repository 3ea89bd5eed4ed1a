#include "core/directory.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/runtime.hpp"
#include "xml/parser.hpp"

namespace umiddle::core {

Directory::Directory(Runtime& runtime)
    : runtime_(runtime),
      lookups_(runtime.network().metrics().counter("dir.lookups")),
      announce_cache_hits_(runtime.network().metrics().counter("dir.announce_cache_hits")),
      announce_cache_misses_(runtime.network().metrics().counter("dir.announce_cache_misses")),
      adverts_tx_(runtime.network().metrics().counter("dir.adverts_tx")),
      adverts_rx_(runtime.network().metrics().counter("dir.adverts_rx")),
      expired_(runtime.network().metrics().counter("dir.expired")),
      refresh_(runtime.scheduler(), {sim::host_id(runtime.host()), sim::tag_id("dir.refresh")},
               [this]() { refresh_tick(); }) {}

namespace {

/// Open the <umiddle-adv> element every advert starts with.
void open_envelope(xml::Writer& out, const char* type, const NodeInfo& sender) {
  out.start("umiddle-adv")
      .attr("type", type)
      .attr("node", sender.id.to_string())
      .attr("host", sender.host)
      .attr("umtp-port", std::to_string(sender.umtp_port));
}

}  // namespace

std::string announce_text(const TranslatorProfile& profile, const NodeInfo& sender) {
  // Room for the tags and for short names: a three-port announce (about 440
  // bytes) is written without regrowing its buffer.
  xml::Writer out(256 + 128 * profile.shape.size());
  open_envelope(out, "announce", sender);
  out.start("translator")
      .attr("id", profile.id.to_string())
      .attr("name", profile.name)
      .attr("platform", profile.platform)
      .attr("device-type", profile.device_type)
      .attr("node", profile.node.to_string());
  profile.shape.write(out);
  out.end("translator").end("umiddle-adv");
  return std::move(out).take();
}

std::string bye_text(TranslatorId id, const NodeInfo& sender) {
  xml::Writer out;
  open_envelope(out, "bye", sender);
  out.attr("translator-id", id.to_string()).end("umiddle-adv");
  return std::move(out).take();
}

void Directory::multicast(std::string_view advert) {
  multicast_payload(make_payload(to_bytes(advert)));
}

void Directory::multicast_payload(const PayloadPtr& payload) {
  adverts_tx_.inc();
  auto r = runtime_.network().udp_multicast(socket_, group_, runtime_.config().directory_port,
                                            payload);
  if (!r.ok()) {
    log::Entry(log::Level::warn, "directory") << "multicast failed: " << r.error().to_string();
  }
}

Result<void> Directory::start() {
  if (started_) return ok_result();
  auto bind = runtime_.network().udp_bind(
      {runtime_.host(), runtime_.config().directory_port},
      [this](net::UdpSocket from, const Bytes& payload) { handle_datagram(from, payload); });
  if (!bind.ok()) return bind.error();
  if (auto join = runtime_.network().join_group(runtime_.host(), runtime_.config().group);
      !join.ok()) {
    runtime_.network().udp_close(bind.value());
    return join;
  }
  socket_ = bind.value();
  group_ = runtime_.network().group(runtime_.config().group);
  started_ = true;
  self_ = NodeInfo{runtime_.node(), runtime_.host(), runtime_.config().umtp_port};
  nodes_[self_.id] = self_;
  // Tell peers about anything mapped before start, and ask them to re-announce.
  announce_all_local();
  xml::Writer probe;
  open_envelope(probe, "probe", self_);
  probe.end("umiddle-adv");
  multicast(std::move(probe).take());
  // Soft-state maintenance: periodic re-announcement + expiry of stale
  // remote entries (a crashed node never sends bye).
  refresh_.arm(max_age_ / 3);
  return ok_result();
}

void Directory::refresh_tick() {
  announce_all_local();
  expire_stale();
  refresh_.arm(max_age_ / 3);
}

std::size_t Directory::expire_stale() {
  const std::size_t expired = expire(runtime_.scheduler().now() - max_age_);
  expired_.inc(expired);
  return expired;
}

void Directory::reannounce() {
  if (!started_) return;
  announce_all_local();
}

void Directory::stop() {
  if (!started_) return;
  for (const Advert& advert : live_adverts()) multicast(bye_text(advert.id, self_));
  runtime_.network().leave_group(runtime_.host(), runtime_.config().group);
  runtime_.network().udp_close(socket_);
  started_ = false;
  refresh_.cancel();
  lifetime_.reset();
}

void Directory::crash() {
  if (!started_) return;
  // No byes, no leave_group/udp_close: the fault plane already dropped the
  // host's sockets and group memberships, and a dead process sends nothing.
  started_ = false;
  refresh_.cancel();
  lifetime_.reset();
  clear();
  adverts_.clear();
  nodes_.clear();
}

std::vector<TranslatorProfile> Directory::lookup(const Query& query) const {
  lookups_.inc();
  std::vector<TranslatorProfile> out;
  for (const auto& [id, entry] : entries_) {
    if (matches(query, entry.profile)) out.push_back(entry.profile);
  }
  return out;
}

const NodeInfo* Directory::node_info(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<Directory::Advert>::iterator Directory::find_advert(TranslatorId id) {
  auto it = std::ranges::lower_bound(adverts_, id, {}, &Advert::id);
  return it != adverts_.end() && it->id == id ? it : adverts_.end();
}

std::vector<Directory::Advert>& Directory::live_adverts() {
  std::erase_if(adverts_, [](const Advert& advert) { return advert.withdrawn; });
  return adverts_;
}

void Directory::publish_local(const TranslatorProfile& profile) {
  auto at = std::ranges::lower_bound(adverts_, profile.id, {}, &Advert::id);
  if (at == adverts_.end() || at->id != profile.id) at = adverts_.insert(at, Advert{});
  *at = Advert{profile.id, nullptr};  // a republish (a rebind) drops the stale payload
  publish(profile);
  if (!started_) return;
  // Listeners may have withdrawn it meanwhile.
  if (auto it = find_advert(profile.id); it != adverts_.end() && !it->withdrawn) {
    send_announce(*it);
  }
}

void Directory::withdraw_local(TranslatorId id) {
  if (auto it = find_advert(id); it != adverts_.end()) *it = Advert{id, nullptr, true};
  if (withdraw(id) && started_) multicast(bye_text(id, self_));
}

void Directory::send_announce(Advert& advert) {
  // The serialized advertisement only changes when the profile does (the
  // envelope attributes are fixed per runtime, and a republish resets the
  // advert), so periodic re-announcements multicast one cached buffer.
  if (advert.announce == nullptr) {
    announce_cache_misses_.inc();
    advert.announce = make_payload(to_bytes(announce_text(*profile(advert.id), self_)));
  } else {
    announce_cache_hits_.inc();
  }
  multicast_payload(advert.announce);
}

void Directory::announce_all_local() {
  for (Advert& advert : live_adverts()) send_announce(advert);
}

void Directory::handle_datagram(net::UdpSocket from, const Bytes& payload) {
  adverts_rx_.inc();
  // Multicast loops every advert back to its sender. Only this directory's
  // socket sends from its bound endpoint, so drop those before parsing.
  if (from == socket_) return;
  auto doc = xml::parse({reinterpret_cast<const char*>(payload.data()), payload.size()});
  if (!doc.ok() || doc.value().name() != "umiddle-adv") {
    log::Entry(log::Level::warn, "directory")
        << "ignoring malformed advert from " << runtime_.network().host_name(from.host) << ":"
        << from.port;
    return;
  }
  const xml::Element& adv = doc.value();
  std::uint64_t node_raw = 0;
  if (!strings::parse_u64(adv.attr("node"), node_raw) || node_raw == 0) return;
  NodeId sender(node_raw);
  if (sender == runtime_.node()) return;  // our node id from another endpoint: forged

  // Learn/refresh the sender's transport endpoint.
  std::uint64_t umtp_port = 0;
  strings::parse_u64(adv.attr("umtp-port"), umtp_port);
  if (umtp_port != 0 && umtp_port <= 0xFFFF && !adv.attr("host").empty()) {
    nodes_[sender] = NodeInfo{sender, std::string(adv.attr("host")),
                              static_cast<std::uint16_t>(umtp_port)};
  }

  std::string_view type = adv.attr("type");
  if (type == "announce") {
    const xml::Element* tr = adv.child("translator");
    if (tr == nullptr) return;
    auto profile = TranslatorProfile::from_xml(*tr);
    if (!profile.ok()) {
      log::Entry(log::Level::warn, "directory")
          << "bad announce: " << profile.error().to_string();
      return;
    }
    announce(sender, profile.value(), runtime_.scheduler().now());
  } else if (type == "bye") {
    std::uint64_t id_raw = 0;
    if (strings::parse_u64(adv.attr("translator-id"), id_raw)) bye(sender, TranslatorId(id_raw));
  } else if (type == "probe") {
    // Re-announce after a deterministic per-node jitter so simultaneous
    // responders do not collide on the shared medium.
    sim::Duration jitter =
        sim::milliseconds(5 + static_cast<std::int64_t>(runtime_.node().value() % 8) * 12);
    runtime_.scheduler().schedule_after(
        jitter, lifetime_.guard([this]() { announce_all_local(); }),
        {sim::host_id(runtime_.host()), sim::tag_id("dir.probe-reply")});
  }
}

}  // namespace umiddle::core
