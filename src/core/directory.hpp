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
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/profile.hpp"
#include "netsim/network.hpp"
#include "obs/metrics.hpp"
#include "sim/timer.hpp"

namespace umiddle::core {

class Runtime;

/// Receives directory change notifications (paper Fig. 6 (2)).
class DirectoryListener {
 public:
  virtual ~DirectoryListener() = default;
  virtual void on_mapped(const TranslatorProfile& profile) = 0;
  virtual void on_unmapped(const TranslatorProfile& profile) = 0;
};

/// Adapts two callables to DirectoryListener.
class LambdaListener final : public DirectoryListener {
 public:
  using Fn = std::function<void(const TranslatorProfile&)>;
  LambdaListener(Fn mapped, Fn unmapped)
      : mapped_(std::move(mapped)), unmapped_(std::move(unmapped)) {}
  void on_mapped(const TranslatorProfile& p) override {
    if (mapped_) mapped_(p);
  }
  void on_unmapped(const TranslatorProfile& p) override {
    if (unmapped_) unmapped_(p);
  }

 private:
  Fn mapped_, unmapped_;
};

/// How to reach a peer runtime's transport module.
struct NodeInfo {
  NodeId id;
  std::string host;
  std::uint16_t umtp_port = 0;
};

class Directory {
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
  /// Drop remote entries not refreshed within max_age (crashed nodes never
  /// send bye) and notify listeners. Returns the number of entries expired.
  /// Called by the refresh tick; public so tests can force an expiry sweep
  /// deterministically.
  std::size_t expire_stale();

  /// Lifetime granted to remote entries per advertisement. Local translators
  /// are re-announced every max_age/3; remote entries not refreshed within
  /// max_age are expired (covers crashed nodes that never said bye).
  sim::Duration max_age() const { return max_age_; }
  void set_max_age(sim::Duration age) { max_age_ = age; }

  // --- paper Fig. 6 API -------------------------------------------------------
  /// Profiles of all known translators (local and remote) matching the query,
  /// in ascending-id order: a scan over every known profile.
  std::vector<TranslatorProfile> lookup(const Query& query) const;
  /// Register for map/unmap notifications. The listener must outlive the
  /// directory or be removed first.
  void add_directory_listener(DirectoryListener* listener);
  void remove_directory_listener(DirectoryListener* listener);

  /// Profile by id (local or remote), nullptr if unknown.
  const TranslatorProfile* profile(TranslatorId id) const;
  /// Transport endpoint of the node hosting a translator, if known.
  const NodeInfo* node_info(NodeId id) const;
  std::size_t known_translators() const { return entries_.size(); }

  // --- called by the runtime ----------------------------------------------------
  void publish_local(const TranslatorProfile& profile);
  void withdraw_local(TranslatorId id);

 private:
  /// Everything known about one translator. Replacing or erasing an entry
  /// replaces or erases its cached announce payload with it.
  struct Entry {
    TranslatorProfile profile;
    /// Serialized announce advert (local translators only), built on first
    /// send so periodic refresh_tick() re-announcements reuse one buffer.
    PayloadPtr announce;
    /// Last refresh (remote translators only; locals never expire).
    std::optional<sim::TimePoint> last_seen;
  };

  void handle_datagram(const net::Endpoint& from, const Bytes& payload);
  void send_announce(Entry& entry);
  void announce_all_local();
  void refresh_tick();
  void notify_mapped(const TranslatorProfile& profile);
  void notify_unmapped(const TranslatorProfile& profile);
  xml::Element envelope(const char* type) const;
  void multicast(const xml::Element& advert);
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
  sim::Duration max_age_ = sim::seconds(30);
  std::map<TranslatorId, Entry> entries_;
  std::map<NodeId, NodeInfo> nodes_;
  std::vector<DirectoryListener*> listeners_;
  /// Soft-state refresh: re-announce local entries, expire silent remote ones.
  /// Armed while started.
  sim::Timer refresh_;
  /// Guards pending probe replies; reset by stop() and crash().
  sim::Lifetime lifetime_;
};

}  // namespace umiddle::core
