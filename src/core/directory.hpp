// The uMiddle directory module (paper §3.2, Fig. 6).
//
// Handles the exchange of device advertisements among runtime hosts: a
// discovery mechanism for translators that is independent of the native
// discovery protocols the mappers speak. Each runtime multicasts
//
//   announce — a translator was mapped here (carries the full profile and this
//              node's UMTP endpoint, so peers learn how to reach it),
//   bye      — a translator was unmapped,
//   probe    — sent at startup; peers respond by re-announcing their local
//              translators after a per-node jitter delay.
//
// The public API is the paper's Figure 6:
//   lookup(Query)                  — profiles of translators matching the query
//   add_directory_listener(...)    — notification when a native device is
//                                    mapped to (or unmapped from) uMiddle
//
// The rules about which translators are known live in the DirectoryTable this
// class derives from; the Directory turns adverts into table calls and table
// state into adverts.
#pragma once

#include <map>
#include <vector>

#include "core/directory_table.hpp"
#include "netsim/network.hpp"
#include "obs/metrics.hpp"
#include "sim/timer.hpp"

namespace umiddle::core {

class Runtime;

/// How to reach a peer runtime's transport module.
struct NodeInfo {
  NodeId id;
  std::string host;
  std::uint16_t umtp_port = 0;
};

/// The announce advert `sender` multicasts for `profile`, written in one pass
/// without an element tree. The directory sends these bytes; tests and the
/// fuzz table forge adverts with it (a profile's node need not be the
/// sender's).
std::string announce_text(const TranslatorProfile& profile, const NodeInfo& sender);
/// The bye advert `sender` multicasts when translator `id` is unmapped.
std::string bye_text(TranslatorId id, const NodeInfo& sender);

class Directory : public DirectoryTable {
 public:
  explicit Directory(Runtime& runtime);

  /// Join the multicast group, bind the advertisement socket, send a probe,
  /// and begin periodic re-announcement (soft state: peers expire entries
  /// whose advertisements stop arriving, like SSDP's CACHE-CONTROL max-age).
  [[nodiscard]] Result<void> start();
  /// Send bye for all local translators and leave the group.
  void stop();
  /// Simulated process death (Runtime::crash): forget all state without
  /// sending byes — a dead process says nothing. Peers learn of the death
  /// through soft-state expiry (max_age) instead.
  void crash();

  /// Re-announce every local translator immediately (lease renewal outside the
  /// periodic refresh tick). The transport calls this after re-establishing a
  /// UMTP link, so peers whose soft state expired during the outage re-learn
  /// our translators without waiting up to max_age/3.
  void reannounce();
  /// expire(now - max_age), counted as dir.expired. Returns the number of
  /// entries expired. Called by the refresh tick; public so tests can force
  /// an expiry sweep deterministically.
  std::size_t expire_stale();

  /// Lifetime granted to remote entries per advertisement. Local translators
  /// are re-announced every max_age/3; remote entries not refreshed within
  /// max_age are expired (covers crashed nodes that never said bye).
  sim::Duration max_age() const { return max_age_; }
  void set_max_age(sim::Duration age) { max_age_ = age; }

  // --- paper Fig. 6 API -------------------------------------------------------
  // add_directory_listener and profile are the table's.
  /// Profiles of all known translators (local and remote) matching the query,
  /// in ascending-id order: a scan over every known profile.
  std::vector<TranslatorProfile> lookup(const Query& query) const;

  /// Transport endpoint of the node hosting a translator, if known.
  const NodeInfo* node_info(NodeId id) const;

  // --- called by the runtime ----------------------------------------------------
  void publish_local(const TranslatorProfile& profile);
  void withdraw_local(TranslatorId id);

 private:
  /// One local translator's announce, serialized on first send so periodic
  /// re-announcements reuse one buffer. A withdraw leaves a tombstone that the
  /// next walk of the list compacts, so it shifts nothing.
  struct Advert {
    TranslatorId id;
    PayloadPtr announce;
    bool withdrawn = false;
  };
  /// The advert of `id` (live or a tombstone), or adverts_.end().
  std::vector<Advert>::iterator find_advert(TranslatorId id);
  /// adverts_ without its tombstones.
  std::vector<Advert>& live_adverts();

  void handle_datagram(net::UdpSocket from, const Bytes& payload);
  void send_announce(Advert& advert);
  void announce_all_local();
  void refresh_tick();
  void multicast(std::string_view advert);
  void multicast_payload(const PayloadPtr& payload);

  Runtime& runtime_;
  // World-level instruments (net::Network::metrics); counts aggregate across
  // every runtime in the world — per-node attribution lives in span tracks.
  obs::Counter& lookups_;
  obs::Counter& announce_cache_hits_;
  obs::Counter& announce_cache_misses_;
  obs::Counter& adverts_tx_;
  obs::Counter& adverts_rx_;
  obs::Counter& expired_;
  bool started_ = false;
  net::UdpSocket socket_;  ///< bound while started
  net::GroupId group_ = 0;  ///< config().group, interned by start()
  NodeInfo self_;  ///< this runtime's endpoint, the sender of its adverts
  /// The local translators in ascending id: what a refresh tick walks.
  std::vector<Advert> adverts_;
  sim::Duration max_age_ = sim::seconds(30);
  std::map<NodeId, NodeInfo> nodes_;
  /// Soft-state refresh: re-announce local entries, expire silent remote ones.
  /// Armed while started.
  sim::Timer refresh_;
  /// Guards pending probe replies; reset by stop() and crash().
  sim::Lifetime lifetime_;
};

}  // namespace umiddle::core
