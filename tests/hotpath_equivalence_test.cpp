// Equivalence oracles for the PR-2 hot-path rewrites.
//
// Two of the optimized paths keep their original implementations around as
// references, and these tests drive both sides with the same randomized
// workload:
//
//   1. Directory::lookup() (inverted shape index) must return exactly the same
//      profiles, in the same order, as Directory::lookup_linear() (the
//      retained unindexed scan) for arbitrary populations and queries.
//   2. The lazy-deletion scheduler must dispatch the same events, at the same
//      virtual times, with the same audit digest, as the seed's
//      priority_queue + linear-scan-cancellation scheduler (reproduced here
//      verbatim in miniature).
//
// Both workloads are seeded Rng-driven: failures replay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rand.hpp"
#include "core/umiddle.hpp"

namespace umiddle {
namespace {

// --- 0. logging early-out --------------------------------------------------------

/// A type whose formatting is observable: counts how many times operator<<
/// actually ran. With logging off, log::Entry must never format.
struct CountingFormattable {
  mutable int* formats;
};
std::ostream& operator<<(std::ostream& os, const CountingFormattable& c) {
  ++*c.formats;
  return os << "formatted";
}

TEST(HotpathEquivalenceTest, DisabledLoggingFormatsNothingAndCallsNoSink) {
  int sink_calls = 0;
  int formats = 0;
  log::set_sink([&sink_calls](log::Level, std::string_view, std::string_view) { ++sink_calls; });

  log::set_level(log::Level::off);
  EXPECT_FALSE(log::enabled(log::Level::error));
  log::Entry(log::Level::error, "test") << CountingFormattable{&formats} << 42;
  EXPECT_EQ(sink_calls, 0);
  EXPECT_EQ(formats, 0);

  // Below-threshold statements are equally free.
  log::set_level(log::Level::warn);
  EXPECT_FALSE(log::enabled(log::Level::debug));
  EXPECT_TRUE(log::enabled(log::Level::warn));
  log::Entry(log::Level::debug, "test") << CountingFormattable{&formats};
  EXPECT_EQ(sink_calls, 0);
  EXPECT_EQ(formats, 0);

  // Enabled statements still format and reach the sink exactly once.
  log::Entry(log::Level::warn, "test") << CountingFormattable{&formats};
  EXPECT_EQ(sink_calls, 1);
  EXPECT_EQ(formats, 1);

  // No sink installed: enabled() is false at any level, nothing formats.
  log::set_sink(nullptr);
  EXPECT_FALSE(log::enabled(log::Level::error));
  log::Entry(log::Level::error, "test") << CountingFormattable{&formats};
  EXPECT_EQ(formats, 1);
  log::set_level(log::Level::off);
}

using sim::Duration;

// --- 1. directory index vs linear oracle ---------------------------------------

constexpr const char* kDigitalTypes[] = {
    "image/jpeg", "image/png", "image/*", "audio/wav", "audio/mp3",
    "audio/*",    "text/plain", "video/mp4", "*/*",
};
constexpr const char* kPhysicalTags[] = {
    "visible/paper", "visible/*", "audible/sound", "tangible/touch",
};
constexpr const char* kPlatforms[] = {"upnp", "bluetooth", "rmi", "motes"};

core::Shape random_shape(Rng& rng) {
  core::Shape shape;
  std::size_t n_ports = rng.between(1, 4);
  for (std::size_t p = 0; p < n_ports; ++p) {
    core::PortSpec spec;
    spec.name = "p" + std::to_string(p);
    spec.kind = rng.chance(0.8) ? core::PortKind::digital : core::PortKind::physical;
    spec.direction = rng.chance(0.5) ? core::Direction::input : core::Direction::output;
    spec.type = MimeType::of(spec.kind == core::PortKind::digital
                                 ? kDigitalTypes[rng.below(std::size(kDigitalTypes))]
                                 : kPhysicalTags[rng.below(std::size(kPhysicalTags))]);
    EXPECT_TRUE(shape.add(std::move(spec)).ok());
  }
  return shape;
}

core::TranslatorProfile random_profile(std::uint64_t id, Rng& rng) {
  core::TranslatorProfile profile;
  profile.id = TranslatorId(id);
  profile.name = "dev-" + std::to_string(id) + "-" + rng.ident(4);
  profile.platform = kPlatforms[rng.below(std::size(kPlatforms))];
  profile.device_type = "RandomDevice";
  profile.node = NodeId(1);
  profile.shape = random_shape(rng);
  return profile;
}

/// A random constraint. Partial constraints (missing kind or direction) push
/// lookup() onto its linear-fallback path; full ones exercise the index.
core::PortQuery random_port_query(Rng& rng) {
  core::PortQuery pq;
  if (rng.chance(0.85)) pq.kind = rng.chance(0.8) ? core::PortKind::digital : core::PortKind::physical;
  if (rng.chance(0.85)) pq.direction = rng.chance(0.5) ? core::Direction::input : core::Direction::output;
  if (rng.chance(0.8)) {
    pq.type = MimeType::of(pq.kind == core::PortKind::physical
                               ? kPhysicalTags[rng.below(std::size(kPhysicalTags))]
                               : kDigitalTypes[rng.below(std::size(kDigitalTypes))]);
  }
  return pq;
}

core::Query random_query(Rng& rng) {
  core::Query q;
  std::size_t n_req = rng.between(1, 2);
  for (std::size_t i = 0; i < n_req; ++i) q.require(random_port_query(rng));
  if (rng.chance(0.2)) q.platform(kPlatforms[rng.below(std::size(kPlatforms))]);
  if (rng.chance(0.1)) q.name_contains("dev-1");
  return q;
}

std::vector<std::uint64_t> ids_of(const std::vector<core::TranslatorProfile>& profiles) {
  std::vector<std::uint64_t> out;
  out.reserve(profiles.size());
  for (const auto& p : profiles) out.push_back(p.id.value());
  return out;
}

TEST(HotpathEquivalenceTest, IndexedLookupMatchesLinearOracle) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  ASSERT_TRUE(net.add_host("a").ok());
  ASSERT_TRUE(net.attach("a", lan).ok());
  core::RuntimeConfig cfg;
  cfg.node_id = 1;
  core::Runtime runtime(sched, net, "a", cfg);
  core::Directory& dir = runtime.directory();

  Rng rng(20260807);
  constexpr std::uint64_t kPopulation = 1200;
  for (std::uint64_t id = 1; id <= kPopulation; ++id) {
    dir.publish_local(random_profile(id, rng));
  }
  // Churn: withdrawals and shape-changing republishes must keep the index in
  // sync with the profile map (the unindex-before-mutate invariant).
  for (std::uint64_t i = 0; i < kPopulation / 10; ++i) {
    dir.withdraw_local(TranslatorId(rng.between(1, kPopulation)));
  }
  for (std::uint64_t i = 0; i < kPopulation / 20; ++i) {
    dir.publish_local(random_profile(rng.between(1, kPopulation), rng));
  }

  std::size_t non_empty = 0;
  for (int trial = 0; trial < 200; ++trial) {
    core::Query q = random_query(rng);
    auto indexed = ids_of(dir.lookup(q));
    auto linear = ids_of(dir.lookup_linear(q));
    ASSERT_EQ(indexed, linear) << "divergence at trial " << trial;
    if (!indexed.empty()) ++non_empty;
    ASSERT_TRUE(std::is_sorted(indexed.begin(), indexed.end()));
  }
  // The workload must actually exercise hits, not just vacuous misses.
  EXPECT_GT(non_empty, 50u);
}

TEST(HotpathEquivalenceTest, IndexSurvivesExpireRepublishCrashInterleavings) {
  // The churn sources — soft-state expiry, tombstone-free republish under a
  // recycled id, whole-runtime crash/restart, and forged adverts naming local
  // translators — all mutate the directory's entries and shape index through
  // different paths. Interleave them randomly and assert the indexed lookup
  // stays exactly equivalent to the linear oracle, that local translators
  // only change through the local API, and that the runtime's own looped-back
  // adverts are counted but change nothing.
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"b", "ghost"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::RuntimeConfig cfg;
  cfg.node_id = 1;
  core::Runtime runtime(sched, net, "b", cfg);
  core::Directory& dir = runtime.directory();
  dir.set_max_age(sim::seconds(5));
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(net.join_group("ghost", cfg.group).ok());

  Rng rng(0xC4A05);
  constexpr std::uint64_t kGhostNodes = 4;    // 900..903
  constexpr std::uint64_t kIdsPerNode = 5;

  auto ghost_id = [&](std::uint64_t node, std::uint64_t k) {
    return ((900 + node) << 32) | (1 + k);
  };
  // Sent from the ghost endpoint with envelope node `sender`; the embedded
  // profile claims `owner`.
  auto forge_announce_as = [&](std::uint64_t sender, std::uint64_t id, std::uint64_t owner) {
    core::TranslatorProfile p = random_profile(id, rng);
    p.node = NodeId(owner);
    xml::Element adv("umiddle-adv");
    adv.set_attr("type", "announce");
    adv.set_attr("node", std::to_string(sender));
    adv.set_attr("host", "ghost");
    adv.set_attr("umtp-port", "7701");
    adv.add_child(p.to_xml());
    ASSERT_TRUE(net.udp_multicast({"ghost", cfg.directory_port}, cfg.group,
                                  cfg.directory_port, to_bytes(adv.to_string()))
                    .ok());
  };
  auto forge_announce = [&](std::uint64_t node, std::uint64_t k) {
    forge_announce_as(900 + node, ghost_id(node, k), 900 + node);
  };
  auto forge_bye_as = [&](std::uint64_t sender, std::uint64_t id) {
    xml::Element bye("umiddle-adv");
    bye.set_attr("type", "bye");
    bye.set_attr("node", std::to_string(sender));
    bye.set_attr("host", "ghost");
    bye.set_attr("umtp-port", "7701");
    bye.set_attr("translator-id", std::to_string(id));
    ASSERT_TRUE(net.udp_multicast({"ghost", cfg.directory_port}, cfg.group,
                                  cfg.directory_port, to_bytes(bye.to_string()))
                    .ok());
  };
  auto local_id = [](std::uint64_t k) { return (1ull << 32) | (1 + k); };
  const obs::Counter& adverts_rx = net.metrics().counter("dir.adverts_rx");
  const obs::Counter& expired = net.metrics().counter("dir.expired");
  // What the local API last published under each local id.
  std::map<std::uint64_t, std::string> locals;
  auto all_profiles = [&] {
    std::vector<std::string> out;
    for (const auto& p : dir.lookup_linear(core::Query{})) {
      out.push_back(p.id.to_string() + "/" + p.node.to_string() + "/" + p.name);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  std::size_t non_empty = 0;
  std::size_t forged_against_local = 0;
  for (int round = 0; round < 120; ++round) {
    const std::size_t ops = rng.between(1, 4);
    for (std::size_t op = 0; op < ops; ++op) {
      switch (rng.below(7)) {
        case 0:  // remote announce (fresh, refresh, or recycled-id rebind)
        case 1:
          forge_announce(rng.below(kGhostNodes), rng.below(kIdsPerNode));
          break;
        case 2: {  // remote bye (possibly for an unknown id — must be a no-op)
          const std::uint64_t node = rng.below(kGhostNodes);
          forge_bye_as(900 + node, ghost_id(node, rng.below(kIdsPerNode)));
          break;
        }
        case 3: {  // local publish/republish under a small recycled id pool
          core::TranslatorProfile p = random_profile(local_id(rng.below(6)), rng);
          locals[p.id.value()] = p.name;
          dir.publish_local(p);
          break;
        }
        case 4: {  // local withdraw (possibly of an unknown id)
          const std::uint64_t id = local_id(rng.below(6));
          locals.erase(id);
          dir.withdraw_local(TranslatorId(id));
          break;
        }
        case 5: {  // a ghost node forges a bye or announce naming a local id
          const std::uint64_t id = local_id(rng.below(6));
          const std::uint64_t sender = 900 + rng.below(kGhostNodes);
          if (locals.contains(id)) ++forged_against_local;
          switch (rng.below(3)) {
            case 0: forge_bye_as(sender, id); break;
            case 1: forge_announce_as(sender, id, 1); break;  // claims our node
            default:
              if (locals.contains(id)) forge_announce_as(sender, id, sender);
              break;
          }
          break;
        }
        default:  // soft-state expiry of everything remote not re-announced
          sched.run_for(sim::seconds(6));
          break;
      }
    }
    sched.run_for(sim::milliseconds(50));  // deliver forged datagrams

    if (round % 40 == 39) {  // process death wipes both map and index
      runtime.crash();
      locals.clear();
      ASSERT_EQ(dir.known_translators(), 0u);
      ASSERT_TRUE(runtime.start().ok());
    }

    // Local translators change only through publish_local/withdraw_local.
    for (const auto& [id, name] : locals) {
      const core::TranslatorProfile* p = dir.profile(TranslatorId(id));
      ASSERT_NE(p, nullptr) << "local " << id << " erased by a forged advert, round " << round;
      ASSERT_EQ(p->node, NodeId(1)) << "round " << round;
      ASSERT_EQ(p->name, name) << "local " << id << " overwritten, round " << round;
    }
    // And no advert makes the directory believe our node owns a translator.
    for (const auto& p : dir.lookup_linear(core::Query{})) {
      if (p.node == NodeId(1)) ASSERT_TRUE(locals.contains(p.id.value())) << "round " << round;
    }

    // The runtime's own looped-back announces are counted but change
    // nothing; a refresh tick in the window may only expire remote entries.
    const auto before = all_profiles();
    const std::uint64_t rx0 = adverts_rx.value();
    const std::uint64_t expired0 = expired.value();
    dir.reannounce();
    sched.run_for(sim::milliseconds(50));
    ASSERT_GE(adverts_rx.value() - rx0, locals.size()) << "round " << round;
    const auto after = all_profiles();
    ASSERT_EQ(before.size() - after.size(), expired.value() - expired0) << "round " << round;
    ASSERT_TRUE(std::includes(before.begin(), before.end(), after.begin(), after.end()))
        << "round " << round;

    for (int trial = 0; trial < 4; ++trial) {
      core::Query q = random_query(rng);
      auto indexed = ids_of(dir.lookup(q));
      auto linear = ids_of(dir.lookup_linear(q));
      ASSERT_EQ(indexed, linear) << "divergence at round " << round;
      ASSERT_TRUE(std::is_sorted(indexed.begin(), indexed.end()));
      if (!indexed.empty()) ++non_empty;
    }
  }
  EXPECT_GT(non_empty, 30u);  // the interleaving must exercise real hits
  EXPECT_GT(forged_against_local, 10u);

  // An advert from another endpoint carrying our own node id is forged: the
  // node check drops it even though it names a translator that node owns.
  const std::uint64_t victim = local_id(0);
  core::TranslatorProfile published = random_profile(victim, rng);
  dir.publish_local(published);
  forge_bye_as(1, victim);
  forge_announce_as(1, local_id(7), 1);
  sched.run_for(sim::milliseconds(50));
  ASSERT_NE(dir.profile(TranslatorId(victim)), nullptr);
  EXPECT_EQ(dir.profile(TranslatorId(victim))->name, published.name);
  EXPECT_EQ(dir.profile(TranslatorId(local_id(7))), nullptr);
}

// --- 2. lazy-deletion scheduler vs the seed scheduler ---------------------------

/// The seed's scheduler algorithm, kept bit-for-bit as a behavioral oracle:
/// std::priority_queue ordered by (when, seq), cancellation via a vector of
/// seqs scanned linearly at every pop. Interface mirrors sim::Scheduler just
/// enough for the shared driver below.
class SeedScheduler {
 public:
  using Handle = std::uint64_t;

  sim::TimePoint now() const { return now_; }

  Handle schedule_after(Duration delay, std::function<void()> fn, sim::EventTag tag = {}) {
    if (delay < Duration(0)) delay = Duration(0);
    sim::TimePoint when = now_ + delay;
    std::uint64_t seq = next_seq_++;
    queue_.push(Ev{when, seq, tag, std::move(fn)});
    return seq;
  }

  void cancel(Handle seq) {
    if (seq == 0) return;
    if (std::find(cancelled_.begin(), cancelled_.end(), seq) == cancelled_.end()) {
      cancelled_.push_back(seq);
    }
  }

  std::size_t run() {
    std::size_t n = 0;
    while (!queue_.empty()) {
      if (skip_if_cancelled()) continue;
      dispatch_top();
      ++n;
    }
    return n;
  }

  std::size_t run_until(sim::TimePoint deadline) {
    std::size_t n = 0;
    while (!queue_.empty()) {
      if (skip_if_cancelled()) continue;
      if (queue_.top().when > deadline) break;
      dispatch_top();
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  std::uint64_t trace_digest() const { return digest_.value(); }
  std::uint64_t events_dispatched() const { return dispatched_; }

 private:
  struct Ev {
    sim::TimePoint when;
    std::uint64_t seq;
    sim::EventTag tag;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  bool skip_if_cancelled() {
    auto it = std::find(cancelled_.begin(), cancelled_.end(), queue_.top().seq);
    if (it == cancelled_.end()) return false;
    cancelled_.erase(it);
    queue_.pop();
    return true;
  }

  void dispatch_top() {
    Ev ev = queue_.top();  // const top(): the copy the optimized heap avoids
    queue_.pop();
    now_ = ev.when;
    digest_.absorb(static_cast<std::uint64_t>(ev.when.count()));
    digest_.absorb(ev.seq);
    digest_.absorb(ev.tag.host);
    digest_.absorb(ev.tag.tag);
    ++dispatched_;
    ev.fn();
  }

  std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
  std::vector<std::uint64_t> cancelled_;
  sim::TimePoint now_{0};
  std::uint64_t next_seq_ = 1;
  sim::TraceDigest digest_;
  std::uint64_t dispatched_ = 0;
};

struct DriverResult {
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;  ///< (virtual ns, event id)
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  std::int64_t end_ns = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancels = 0;
};

/// Deterministic stress workload run identically against both schedulers:
/// bursts of schedule/cancel pairs (many at equal timestamps), callbacks that
/// re-schedule chains and cancel other handles mid-dispatch, double-cancels,
/// cancels of already-fired events, and partial run_for() advances.
template <typename S>
DriverResult run_driver(S& sched) {
  using Handle = decltype(sched.schedule_after(Duration(0), std::function<void()>{},
                                               sim::EventTag{}));
  DriverResult result;
  Rng rng(424242);
  std::vector<Handle> handles;
  std::uint64_t next_id = 0;

  std::function<void(int)> spawn = [&](int depth) {
    std::uint64_t id = next_id++;
    // Coarse delay buckets force plenty of exact timestamp ties.
    Duration delay = Duration(static_cast<std::int64_t>(rng.below(40)) * 250);
    Handle h = sched.schedule_after(
        delay,
        [&, id, depth] {
          result.fired.emplace_back(sched.now().count(), id);
          if (depth < 3 && rng.chance(0.30)) spawn(depth + 1);
          if (!handles.empty() && rng.chance(0.15)) {
            sched.cancel(handles[rng.below(handles.size())]);
            ++result.cancels;
          }
        },
        sim::EventTag{id % 7, id % 13});
    handles.push_back(h);
    ++result.scheduled;
  };

  for (int i = 0; i < 8000; ++i) {
    spawn(0);
    if (rng.chance(0.35)) {
      Handle victim = handles[rng.below(handles.size())];
      sched.cancel(victim);
      ++result.cancels;
      if (rng.chance(0.2)) sched.cancel(victim);  // double-cancel is a no-op
    }
    if (i % 500 == 499) {
      sched.run_for(Duration(static_cast<std::int64_t>(rng.below(3000))));
    }
  }
  sched.run();

  result.digest = sched.trace_digest();
  result.dispatched = sched.events_dispatched();
  result.end_ns = sched.now().count();
  return result;
}

TEST(HotpathEquivalenceTest, SchedulerStressMatchesSeedImplementation) {
  SeedScheduler reference;
  DriverResult expected = run_driver(reference);

  sim::Scheduler optimized;
  DriverResult actual = run_driver(optimized);

  // The workload itself must be substantial: ~10k schedule/cancel pairs.
  ASSERT_GE(expected.scheduled, 10000u);
  ASSERT_GE(expected.cancels, 2000u);
  ASSERT_GT(expected.fired.size(), 8000u);

  EXPECT_EQ(actual.scheduled, expected.scheduled);
  EXPECT_EQ(actual.cancels, expected.cancels);
  EXPECT_EQ(actual.dispatched, expected.dispatched);
  EXPECT_EQ(actual.end_ns, expected.end_ns);
  EXPECT_EQ(actual.digest, expected.digest);
  ASSERT_EQ(actual.fired.size(), expected.fired.size());
  for (std::size_t i = 0; i < expected.fired.size(); ++i) {
    ASSERT_EQ(actual.fired[i], expected.fired[i]) << "first divergence at dispatch " << i;
  }
}

}  // namespace
}  // namespace umiddle
