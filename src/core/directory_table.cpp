#include "core/directory_table.hpp"

#include <optional>

#include "common/log.hpp"

namespace umiddle::core {

void DirectoryTable::publish(const TranslatorProfile& profile) {
  entries_[profile.id] = Entry{profile};
  leases_.erase(profile.id);
  notify_mapped(profile);
}

bool DirectoryTable::withdraw(TranslatorId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  drop(it);
  return true;
}

void DirectoryTable::announce(NodeId sender, const TranslatorProfile& next, Nanos now) {
  if (next.node != sender) return;
  auto [it, fresh] = entries_.try_emplace(next.id);
  if (!fresh && it->second.profile.node != sender) return;
  // Tombstone-free rebind: a node that crashed and restarted reuses its
  // translator ids, so a re-announce can carry a *different* device under a
  // known id without any intervening bye. Detect the change and replay it as
  // unmap + map so listeners (and dynamic message paths) rebind cleanly.
  std::optional<TranslatorProfile> old;
  if (!fresh) {
    const TranslatorProfile& prev = it->second.profile;
    if (prev.name != next.name || prev.platform != next.platform ||
        prev.device_type != next.device_type || !(prev.shape == next.shape)) {
      old = prev;
    }
  }
  it->second = Entry{next};
  leases_[next.id] = Lease{now};
  if (old) notify_unmapped(*old);
  if (fresh || old) notify_mapped(next);
}

void DirectoryTable::bye(NodeId sender, TranslatorId id) {
  auto it = entries_.find(id);
  if (it != entries_.end() && it->second.profile.node == sender) drop(it);
}

std::size_t DirectoryTable::expire(Nanos before) {
  std::size_t expired = 0;
  for (TranslatorId id : unseen_before(leases_, before)) {
    auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // a listener already removed it
    ++expired;
    log::Entry(log::Level::info, "directory")
        << "expired stale translator " << it->second.profile.name << " (node "
        << it->second.profile.node.to_string() << " silent)";
    drop(it);
  }
  return expired;
}

void DirectoryTable::drop(std::map<TranslatorId, Entry>::iterator it) {
  TranslatorProfile profile = std::move(it->second.profile);
  leases_.erase(it->first);
  entries_.erase(it);
  notify_unmapped(profile);
}

void DirectoryTable::notify_mapped(const TranslatorProfile& profile) {
  // Copy: listeners may add/remove listeners while being notified.
  auto listeners = listeners_;
  for (DirectoryListener* l : listeners) l->on_mapped(profile);
}

void DirectoryTable::notify_unmapped(const TranslatorProfile& profile) {
  auto listeners = listeners_;
  for (DirectoryListener* l : listeners) l->on_unmapped(profile);
}

}  // namespace umiddle::core
