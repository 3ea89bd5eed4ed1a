// The directory's rules as a netsim-free table (paper §3.2, Fig. 6;
// DESIGN.md §7.8).
//
// Every rule about which translators a runtime knows lives here: local
// publish and withdraw, a peer's announce and bye, soft-state expiry and the
// crash wipe, and the map/unmap notifications each of them sends. The table
// includes nothing from netsim/, sim/ or obs/ (lint rule
// `netsim-free-session`), so tests/directory_table_test drives it, and
// explores it, without a simulated network. core::Directory derives from it
// and keeps only the adverts: XML, multicast, timers, node endpoints and
// counters. Lint rule `one-directory-rule` keeps the notifications and the
// expiry comparison in this file.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "core/profile.hpp"
#include "core/qos.hpp"

namespace umiddle::core {

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

/// The one soft-state expiry rule (DESIGN.md §7.8): the keys of `entries`
/// whose `last_seen` is before `before`, in key order. The directory's leases
/// and the mapper import table both expire through it.
template <typename Map>
std::vector<typename Map::key_type> unseen_before(const Map& entries, Nanos before) {
  std::vector<typename Map::key_type> stale;
  for (const auto& [key, entry] : entries) {
    if (entry.last_seen < before) stale.push_back(key);
  }
  return stale;
}

class DirectoryTable {
 public:
  /// Register for map/unmap notifications. The listener must outlive the
  /// table or be removed first.
  void add_directory_listener(DirectoryListener* listener) { listeners_.push_back(listener); }
  void remove_directory_listener(DirectoryListener* listener) { std::erase(listeners_, listener); }

  /// Profile by id (local or remote), nullptr if unknown.
  const TranslatorProfile* profile(TranslatorId id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second.profile;
  }
  std::size_t known_translators() const { return entries_.size(); }

 protected:
  // The changes, made by the Directory that derives from the table.
  /// A translator was mapped on this node: (re)place its entry, which never
  /// expires, and notify mapped.
  void publish(const TranslatorProfile& profile);
  /// A translator of this node was unmapped. False if the id is unknown.
  bool withdraw(TranslatorId id);
  /// `sender` announced `profile` at `now`. A node may only describe, and
  /// overwrite, translators it owns. A known id whose name, platform, device
  /// type or shape changed is a rebind (a restarted node reusing its ids),
  /// notified as unmapped(old) then mapped(new); an unchanged one renews the
  /// lease.
  void announce(NodeId sender, const TranslatorProfile& profile, Nanos now);
  /// `sender` said bye for `id`; only the owner's bye counts.
  void bye(NodeId sender, TranslatorId id);
  /// Drop the remote entries last seen before `before` (crashed nodes never
  /// send bye) and notify unmapped. Returns the number of entries expired.
  std::size_t expire(Nanos before);
  /// Simulated process death: forget every entry without notifying.
  void clear() {
    entries_.clear();
    leases_.clear();
  }

  /// Everything known about one translator.
  struct Entry {
    TranslatorProfile profile;
  };
  std::map<TranslatorId, Entry> entries_;
  /// A remote entry's last refresh. Local entries hold none: they never expire.
  struct Lease {
    Nanos last_seen;
  };
  /// Remote entries only, so an expiry sweep reads no local one.
  std::map<TranslatorId, Lease> leases_;

 private:
  /// Erase `it` and notify unmapped.
  void drop(std::map<TranslatorId, Entry>::iterator it);
  void notify_mapped(const TranslatorProfile& profile);
  void notify_unmapped(const TranslatorProfile& profile);

  std::vector<DirectoryListener*> listeners_;
};

}  // namespace umiddle::core
