// The native platforms' registration rules as one netsim-free table
// (DESIGN.md §7.10).
//
// Each emulated platform keeps a table of who registered what: MediaBroker's
// producers, consumers and watchers, GENA subscriptions, webhooks, and the WS
// and RMI registries' names. Their rules are one, and live here:
//   - add is idempotent for the key's owner, whose value replaces the old one,
//     and is refused while another owner holds the key;
//   - remove succeeds for the owner only;
//   - drop_owner removes every entry of one owner, whose connection or host is
//     gone, and returns them in key order;
//   - iteration is in key order.
// The protocol classes keep only their wire handling. The table includes
// nothing from netsim/, sim/ or obs/ (lint rule `netsim-free-session`), so
// tests/registrations_test explores it without a simulated network, and lint
// rule `one-registration-table` keeps hand-written tables out of the five
// classes that use it.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <variant>
#include <vector>

namespace umiddle::core {

template <typename Key, typename Owner, typename Value = std::monostate>
class Registrations {
 public:
  struct Entry {
    Owner owner;
    Value value;
  };

  /// Register `key` for `owner`. A key `owner` already holds takes the new
  /// value; a key another owner holds is refused (false) and keeps its entry.
  bool add(const Key& key, Owner owner, Value value = {}) {
    auto it = entries_.lower_bound(key);
    if (it == entries_.end() || entries_.key_comp()(key, it->first)) {
      entries_.emplace_hint(it, key, Entry{std::move(owner), std::move(value)});
      return true;
    }
    if (!(it->second.owner == owner)) return false;
    it->second.value = std::move(value);
    return true;
  }

  /// Remove `key` if `owner` holds it. False, and nothing changes, if the key
  /// is free or another owner's.
  bool remove(const Key& key, const Owner& owner) {
    auto it = entries_.find(key);
    if (it == entries_.end() || !(it->second.owner == owner)) return false;
    entries_.erase(it);
    return true;
  }

  /// Remove every entry `owner` holds; returns their keys and values in key
  /// order.
  std::vector<std::pair<Key, Value>> drop_owner(const Owner& owner) {
    std::vector<std::pair<Key, Value>> dropped;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.owner == owner) {
        dropped.emplace_back(it->first, std::move(it->second.value));
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return dropped;
  }

  /// The entry of `key`, nullptr if the key is free.
  const Entry* find(const Key& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return entries_.size(); }
  /// (key, Entry) pairs in key order.
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  /// Forget every entry (the server holding the table stopped).
  void clear() { entries_.clear(); }

 private:
  std::map<Key, Entry> entries_;
};

}  // namespace umiddle::core
