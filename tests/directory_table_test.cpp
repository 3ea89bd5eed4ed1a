// Model test of the directory's rules (core/directory_table.hpp), with no
// Runtime, no net::Network and no Scheduler. This node is N1; N2 and N3 are
// peers. The ops are the table calls Directory makes: a local publish or
// withdraw, a peer's announce (honest, or claiming a profile another node
// owns) or bye, an expiry sweep, the crash wipe, and virtual time moving on.
// Two translator ids and two profile variants, A and B, that differ only in
// shape are enough to reach every rule: ownership, rebind, bye, expiry.
//
// A recording listener mirrors the notifications. After every step the Model
// checks the table's invariants:
//   - a remote advert never changes an entry owned by this node;
//   - each entry's owner is the node that announced (or published) it;
//   - each remote entry, and nothing else, holds a lease;
//   - no remote entry last seen before the expiry bound survives expire(),
//     and every other entry does;
//   - a rebind notifies unmapped(old) before mapped(new);
//   - the listener's net set of profiles equals the table.
//
// Two suites share the Model. Each hand-written Row scripts the ops for one
// rule and pins the table and the notifications it ends with. The explorer
// runs every sequence of the op alphabet, breadth first with duplicate states
// merged, until no new state appears; a violation prints as a ready-to-paste
// Row.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/directory_table.hpp"

namespace umiddle::core {
namespace {

/// One entry as the probe reads it: the profile and its lease's last refresh,
/// Nanos::max() for an entry that holds no lease.
struct Seen {
  TranslatorProfile profile;
  Nanos last_seen;
};

/// The table with its changes callable and its entries and leases readable,
/// as they are to the Directory that derives from it.
class Table : public DirectoryTable {
 public:
  using DirectoryTable::announce;
  using DirectoryTable::bye;
  using DirectoryTable::clear;
  using DirectoryTable::expire;
  using DirectoryTable::publish;
  using DirectoryTable::withdraw;
  std::map<TranslatorId, Seen> entries() const {
    std::map<TranslatorId, Seen> out;
    for (const auto& [id, entry] : entries_) {
      auto lease = leases_.find(id);
      out.emplace(id, Seen{entry.profile,
                           lease == leases_.end() ? Nanos::max() : lease->second.last_seen});
    }
    return out;
  }
  const std::map<TranslatorId, Lease>& leases() const { return leases_; }
};

enum class Kind : std::uint8_t { Publish, Withdraw, Announce, Bye, Advance, Expire, Clear };
enum V : std::uint8_t { A, B };

/// One step. `node` is the sender of an announce or bye; `owner` is the node
/// an announced profile names, which only an honest sender sets to itself.
struct Op {
  Kind kind;
  int node = 0;
  std::uint64_t id = 0;
  V variant = A;
  int owner = 0;
};

constexpr int N1 = 1, N2 = 2, N3 = 3;
constexpr int kSelf = N1;

Op publish(std::uint64_t id, V v) { return {Kind::Publish, kSelf, id, v, kSelf}; }
Op withdraw(std::uint64_t id) { return {Kind::Withdraw, kSelf, id}; }
Op announce(int sender, std::uint64_t id, V v) { return {Kind::Announce, sender, id, v, sender}; }
Op forged(int sender, std::uint64_t id, V v, int owner) {
  return {Kind::Announce, sender, id, v, owner};
}
Op bye(int sender, std::uint64_t id) { return {Kind::Bye, sender, id}; }
Op advance() { return {Kind::Advance}; }
Op expire() { return {Kind::Expire}; }
Op clear() { return {Kind::Clear}; }

const char* node_name(int n) { return n == N1 ? "N1" : n == N2 ? "N2" : "N3"; }
const char* variant_name(V v) { return v == A ? "A" : "B"; }

/// Prints as the helper call that builds it, so a script pastes as a Row.
std::ostream& operator<<(std::ostream& os, const Op& op) {
  switch (op.kind) {
    case Kind::Publish: return os << "publish(" << op.id << ", " << variant_name(op.variant) << ")";
    case Kind::Withdraw: return os << "withdraw(" << op.id << ")";
    case Kind::Announce:
      if (op.owner != op.node) {
        return os << "forged(" << node_name(op.node) << ", " << op.id << ", "
                  << variant_name(op.variant) << ", " << node_name(op.owner) << ")";
      }
      return os << "announce(" << node_name(op.node) << ", " << op.id << ", "
                << variant_name(op.variant) << ")";
    case Kind::Bye: return os << "bye(" << node_name(op.node) << ", " << op.id << ")";
    case Kind::Advance: return os << "advance()";
    case Kind::Expire: return os << "expire()";
    case Kind::Clear: return os << "clear()";
  }
  return os;
}

/// splitmix64's finalizer.
std::uint64_t scramble(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One more word into a state hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  return scramble(h + scramble(word + 0x9e3779b97f4a7c15ull));
}

/// A remote entry not refreshed for longer than this many ticks expires.
constexpr std::int64_t kMaxAge = 1;
/// Virtual time stops at this tick, so the explored space is finite.
constexpr std::int64_t kTicks = 3;

Shape shape(V v) {
  return Shape({PortSpec{"out", PortKind::digital, Direction::output,
                         MimeType::of(v == A ? "text/plain" : "image/jpeg"), ""}});
}

TranslatorProfile profile(std::uint64_t id, int node, V v) {
  TranslatorProfile p;
  p.id = TranslatorId(id);
  p.name = "device";
  p.platform = "umiddle";
  p.device_type = "urn:test";
  p.node = NodeId(static_cast<std::uint64_t>(node));
  p.shape = shape(v);
  return p;
}

bool same(const TranslatorProfile& a, const TranslatorProfile& b) {
  return a.id == b.id && a.name == b.name && a.platform == b.platform &&
         a.device_type == b.device_type && a.node == b.node && a.shape == b.shape;
}

/// "1:N2/B" for a profile the explorer built.
std::string spell(const TranslatorProfile& p) {
  return p.id.to_string() + ":" + node_name(static_cast<int>(p.node.value())) + "/" +
         (p.shape == shape(A) ? "A" : "B");
}

/// Records the notifications of the current step and keeps the net set of
/// mapped profiles they add up to.
class Recorder final : public DirectoryListener {
 public:
  void on_mapped(const TranslatorProfile& p) override {
    step_.push_back({true, p});
    if (!held_.emplace(p.id, p).second) flag("mapped " + spell(p) + " while it was mapped");
  }
  void on_unmapped(const TranslatorProfile& p) override {
    step_.push_back({false, p});
    auto it = held_.find(p.id);
    if (it == held_.end() || !same(it->second, p)) {
      flag("unmapped " + spell(p) + ", which was not mapped");
      return;
    }
    held_.erase(it);
  }

  struct Event {
    bool mapped;
    TranslatorProfile profile;
  };
  /// The events since the last call, and the log they join.
  std::vector<Event> take_step() {
    for (const Event& e : step_) {
      log_ += (log_.empty() ? "" : " ") + std::string(e.mapped ? "+" : "-") + spell(e.profile);
    }
    return std::exchange(step_, {});
  }
  const std::map<TranslatorId, TranslatorProfile>& held() const { return held_; }
  const std::string& log() const { return log_; }
  const std::string& fault() const { return fault_; }
  /// The listener belongs to the runtime that crashed: it forgets too.
  void clear() { held_.clear(); }

 private:
  void flag(std::string why) {
    if (fault_.empty()) fault_ = std::move(why);
  }

  std::map<TranslatorId, TranslatorProfile> held_;
  std::vector<Event> step_;
  std::string log_;
  std::string fault_;
};

class Model {
 public:
  Model() { table_.add_directory_listener(recorder_.get()); }
  /// A copy notifies its own recorder, not the original's.
  Model(const Model& other)
      : table_(other.table_),
        recorder_(std::make_unique<Recorder>(*other.recorder_)),
        now_(other.now_) {
    table_.remove_directory_listener(other.recorder_.get());
    table_.add_directory_listener(recorder_.get());
  }
  Model(Model&&) = default;
  Model& operator=(const Model&) = delete;

  /// Whether `op` can happen here. A runtime publishes only ids it does not
  /// know (ids are unique per node and recycled only after a crash), and time
  /// stops at kTicks.
  bool enabled(const Op& op) const {
    if (op.kind == Kind::Publish) return table_.profile(TranslatorId(op.id)) == nullptr;
    if (op.kind == Kind::Advance) return now_ < kTicks;
    return true;
  }

  void run(const Op& op) {
    const std::map<TranslatorId, Seen> before = table_.entries();
    const TranslatorId id(op.id);
    switch (op.kind) {
      case Kind::Publish: table_.publish(profile(op.id, kSelf, op.variant)); break;
      case Kind::Withdraw: (void)table_.withdraw(id); break;
      case Kind::Announce:
        table_.announce(NodeId(static_cast<std::uint64_t>(op.node)),
                        profile(op.id, op.owner, op.variant), Nanos(now_));
        break;
      case Kind::Bye: table_.bye(NodeId(static_cast<std::uint64_t>(op.node)), id); break;
      case Kind::Advance: ++now_; break;
      case Kind::Expire: expired_ = table_.expire(Nanos(now_ - kMaxAge)); break;
      case Kind::Clear:
        table_.clear();
        recorder_->clear();
        break;
    }
    check(op, before, recorder_->take_step());
  }

  /// The first broken invariant; empty while they hold.
  const std::string& broken() const { return fault_.empty() ? recorder_->fault() : fault_; }

  /// The table ("1:N2/B@0", "@" and the tick last seen for a remote entry),
  /// then every notification so far.
  std::string outcome() const {
    std::string out = "table {";
    for (const auto& [id, entry] : table_.entries()) {
      out += (out.back() == '{' ? "" : " ") + spell(entry.profile);
      if (entry.last_seen != Nanos::max()) out += "@" + std::to_string(entry.last_seen.count());
    }
    return out + "} events {" + recorder_->log() + "}";
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = static_cast<std::uint64_t>(now_);
    for (const auto& [id, entry] : table_.entries()) {
      h = mix(mix(mix(mix(h, id.value()), entry.profile.node.value()),
                  entry.profile.shape == shape(A) ? 1 : 2),
              static_cast<std::uint64_t>(entry.last_seen.count()));
    }
    return h;
  }

  std::size_t size() const { return table_.known_translators(); }
  std::size_t expired() const { return expired_; }
  bool rebound() const { return rebound_; }

 private:
  void fail(std::string why) {
    if (fault_.empty()) fault_ = std::move(why);
  }

  void check(const Op& op, const std::map<TranslatorId, Seen>& before,
             const std::vector<Recorder::Event>& events) {
    const auto after = table_.entries();
    const NodeId self(static_cast<std::uint64_t>(kSelf));
    const NodeId actor(static_cast<std::uint64_t>(op.node));
    auto changed = [&](TranslatorId id) {
      auto b = before.find(id);
      auto a = after.find(id);
      if (b == before.end() || a == after.end()) return (b == before.end()) != (a == after.end());
      return !same(b->second.profile, a->second.profile) ||
             b->second.last_seen != a->second.last_seen;
    };
    std::vector<TranslatorId> ids;
    for (const auto& [id, entry] : before) ids.push_back(id);
    for (const auto& [id, entry] : after) ids.push_back(id);
    for (TranslatorId id : ids) {
      if (!changed(id)) continue;
      auto b = before.find(id);
      auto a = after.find(id);
      const bool remote_advert = op.kind == Kind::Announce || op.kind == Kind::Bye;
      if (remote_advert && b != before.end() && b->second.profile.node == self) {
        fail("a remote advert from " + std::string(node_name(op.node)) + " changed local entry " +
             spell(b->second.profile));
      }
      if ((op.kind == Kind::Publish || op.kind == Kind::Announce) && a != after.end() &&
          a->second.profile.node != actor) {
        fail("entry " + spell(a->second.profile) + " was written by " + node_name(op.node));
      }
      if (op.kind == Kind::Expire && a == after.end() &&
          (b->second.last_seen >= Nanos(now_ - kMaxAge))) {
        fail("expire() dropped " + spell(b->second.profile) + ", seen within max_age");
      }
    }
    for (const auto& [id, lease] : table_.leases()) {
      auto a = after.find(id);
      if (a == after.end() || a->second.profile.node == self) {
        fail("a lease outlived remote entry " + id.to_string());
      }
    }
    for (const auto& [id, entry] : after) {
      if (entry.profile.node != self && !table_.leases().contains(id)) {
        fail("remote entry " + spell(entry.profile) + " holds no lease");
      }
    }
    if (op.kind == Kind::Expire) {
      for (const auto& [id, entry] : after) {
        if (entry.last_seen < Nanos(now_ - kMaxAge)) {
          fail("expire() kept " + spell(entry.profile) + ", last seen before the bound");
        }
      }
    }
    // A rebind: the owner announced a known id with a changed profile.
    if (op.kind == Kind::Announce) {
      auto b = before.find(TranslatorId(op.id));
      auto a = after.find(TranslatorId(op.id));
      if (b != before.end() && a != after.end() && !same(b->second.profile, a->second.profile)) {
        const bool ordered = events.size() == 2 && !events[0].mapped &&
                             same(events[0].profile, b->second.profile) && events[1].mapped &&
                             same(events[1].profile, a->second.profile);
        rebound_ = true;
        if (!ordered) {
          fail("rebind of " + spell(b->second.profile) + " to " + spell(a->second.profile) +
               " was not notified as unmapped(old) then mapped(new)");
        }
      }
    }
    const auto& held = recorder_->held();
    bool equal = held.size() == after.size();
    for (const auto& [id, entry] : after) {
      auto it = held.find(id);
      equal = equal && it != held.end() && same(it->second, entry.profile);
    }
    if (!equal) fail("the listener's net set differs from the table");
  }

  Table table_;
  std::unique_ptr<Recorder> recorder_ = std::make_unique<Recorder>();
  std::int64_t now_ = 0;
  std::size_t expired_ = 0;
  bool rebound_ = false;
  std::string fault_;
};

// --- hand-written rows ---------------------------------------------------------------

struct Row {
  const char* name;
  std::vector<Op> script;
  const char* outcome;
};

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {"a_a_remote_advert_never_overwrites_a_local_entry",
       {publish(1, A), announce(N2, 1, B), forged(N2, 1, B, N1)},
       "table {1:N1/A} events {+1:N1/A}"},
      {"b_a_sender_must_own_the_profile_it_announces",
       {announce(N2, 1, A), forged(N3, 1, B, N2), forged(N3, 2, A, N2)},
       "table {1:N2/A@0} events {+1:N2/A}"},
      {"c_a_remote_advert_never_overwrites_another_nodes_entry",
       {announce(N2, 1, A), announce(N3, 1, B)},
       "table {1:N2/A@0} events {+1:N2/A}"},
      {"d_a_shape_change_is_a_rebind_unmapped_then_mapped",
       {announce(N2, 1, A), advance(), announce(N2, 1, B)},
       "table {1:N2/B@1} events {+1:N2/A -1:N2/A +1:N2/B}"},
      {"e_an_unchanged_announce_renews_the_lease_silently",
       {announce(N2, 1, A), advance(), announce(N2, 1, A)},
       "table {1:N2/A@1} events {+1:N2/A}"},
      {"f_only_the_owner_says_bye",
       {publish(1, A), announce(N2, 2, A), bye(N3, 2), bye(N2, 1), bye(N2, 2)},
       "table {1:N1/A} events {+1:N1/A +2:N2/A -2:N2/A}"},
      {"g_expiry_drops_silent_remotes_and_never_locals",
       {publish(1, A), announce(N2, 2, A), advance(), expire(), advance(), expire()},
       "table {1:N1/A} events {+1:N1/A +2:N2/A -2:N2/A}"},
      {"h_a_renewed_lease_survives_expiry",
       {announce(N2, 2, A), advance(), announce(N2, 2, A), advance(), expire()},
       "table {2:N2/A@1} events {+2:N2/A}"},
      {"i_withdraw_unmaps_a_local_translator",
       {publish(1, A), publish(2, B), withdraw(1), withdraw(1)},
       "table {2:N1/B} events {+1:N1/A +2:N1/B -1:N1/A}"},
      {"j_a_crash_forgets_everything_silently_and_ids_recycle",
       {publish(1, A), announce(N2, 2, A), clear(), publish(1, B), announce(N3, 2, B)},
       "table {1:N1/B 2:N3/B@0} events {+1:N1/A +2:N2/A +1:N1/B +2:N3/B}"},
      {"k_leases_expire_in_id_order_a_renewed_one_later_and_locals_never",
       {publish(2, A), announce(N3, 3, A), announce(N2, 1, A), announce(N2, 4, A), advance(),
        announce(N2, 4, A), advance(), expire(), advance(), expire()},
       "table {2:N1/A} events {+2:N1/A +3:N3/A +1:N2/A +4:N2/A -1:N2/A -3:N3/A -4:N2/A}"},
  };
  return table;
}

// Keeps ctest names stable: without it gtest prints the row's raw bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class DirectoryTableModel : public ::testing::TestWithParam<Row> {};

TEST_P(DirectoryTableModel, TheTableEndsWhereTheRowSays) {
  const Row& row = GetParam();
  Model model;
  for (std::size_t i = 0; i < row.script.size(); ++i) {
    model.run(row.script[i]);
    ASSERT_EQ(model.broken(), "") << "after step " << i << " (" << row.script[i] << ")";
  }
  EXPECT_EQ(model.outcome(), row.outcome);
}

INSTANTIATE_TEST_SUITE_P(Rows, DirectoryTableModel, ::testing::ValuesIn(rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

TEST(DirectoryTable, ExpiryCountsWhatItDropped) {
  Table table;
  table.announce(NodeId(2), profile(1, N2, A), Nanos(0));
  table.announce(NodeId(3), profile(2, N3, A), Nanos(5));
  EXPECT_EQ(table.expire(Nanos(5)), 1u);
  EXPECT_EQ(table.expire(Nanos(5)), 0u);
  EXPECT_EQ(table.known_translators(), 1u);
}

TEST(UnseenBefore, GivesTheKeysLastSeenBeforeTheBoundInKeyOrder) {
  struct Seen {
    Nanos last_seen;
  };
  const std::map<std::string, Seen> imports = {
      {"c", {Nanos(1)}}, {"a", {Nanos(3)}}, {"b", {Nanos(0)}}, {"d", {Nanos(2)}}};
  EXPECT_EQ(unseen_before(imports, Nanos(2)), (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(unseen_before(imports, Nanos(0)).empty());
}

// --- bounded exhaustive exploration -------------------------------------------------

std::vector<Op> alphabet() {
  std::vector<Op> ops;
  for (std::uint64_t id : {1, 2}) {
    for (V v : {A, B}) {
      ops.push_back(publish(id, v));
      for (int sender : {N2, N3}) {
        for (int owner : {N1, N2, N3}) ops.push_back(forged(sender, id, v, owner));
      }
    }
    ops.push_back(withdraw(id));
    for (int sender : {N2, N3}) ops.push_back(bye(sender, id));
  }
  for (const Op& op : {advance(), expire(), clear()}) ops.push_back(op);
  return ops;
}

/// One explored state: the op that first reached it, from state `parent`.
struct Explored {
  std::size_t parent;
  Op op;
};

std::vector<Op> path_to(const std::vector<Explored>& states, std::size_t i) {
  std::vector<Op> path;
  for (; i != 0; i = states[i].parent) path.push_back(states[i].op);
  std::reverse(path.begin(), path.end());
  return path;
}

/// `script` and where it ended, as a Row that replays it.
std::string as_row(const std::vector<Op>& script, const Model& end) {
  std::ostringstream row;
  row << "{\"explored_" << script.size() << "_steps\",\n {";
  for (std::size_t i = 0; i < script.size(); ++i) row << (i == 0 ? "" : ", ") << script[i];
  row << "},\n \"" << end.outcome() << "\"},";
  return row.str();
}

constexpr int kDepth = 24;

TEST(DirectoryTableExplorer, EverySequenceKeepsTheInvariants) {
  const std::vector<Op> ops = alphabet();
  // Breadth first; a level keeps its states whole, so nothing is replayed.
  std::vector<Explored> states{{0, clear()}};  // the root; its op is unused
  std::vector<std::pair<std::size_t, Model>> level;
  level.emplace_back(0, Model());
  std::unordered_set<std::uint64_t> seen{level.front().second.fingerprint()};
  // What the search must reach, or it proves little.
  std::size_t most = 0, expired = 0;
  bool rebound = false;
  int depth = 0;
  while (!level.empty() && depth < kDepth) {
    ++depth;
    std::vector<std::pair<std::size_t, Model>> deeper;
    for (const auto& [index, here] : level) {
      for (const Op& op : ops) {
        if (!here.enabled(op)) continue;
        Model next = here;
        next.run(op);
        if (const std::string why = next.broken(); !why.empty()) {
          std::vector<Op> path = path_to(states, index);
          path.push_back(op);
          FAIL() << why << " after " << depth << " steps; as a row:\n" << as_row(path, next);
        }
        most = std::max(most, next.size());
        expired = std::max(expired, next.expired());
        rebound |= next.rebound();
        if (!seen.insert(next.fingerprint()).second) continue;
        states.push_back({index, op});
        deeper.emplace_back(states.size() - 1, std::move(next));
      }
    }
    level = std::move(deeper);
  }
  // Finite time and ids make the space finite: the search ends by running out
  // of new states, not out of depth.
  EXPECT_TRUE(level.empty()) << "states left unexplored at depth " << kDepth;
  EXPECT_EQ(most, 2u);
  EXPECT_EQ(expired, 2u);
  EXPECT_TRUE(rebound);
  RecordProperty("depth", depth - 1);
  RecordProperty("states", static_cast<int>(states.size()));
  std::cout << "explored " << states.size() << " states to depth " << depth - 1 << "\n";
}

}  // namespace
}  // namespace umiddle::core
