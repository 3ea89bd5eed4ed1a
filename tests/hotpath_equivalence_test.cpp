// Equivalence oracles for the hot-path rewrites.
//
// Each optimized path is checked against a straightforward reference that
// either stays in the library or is reproduced here, and both sides are
// driven with the same randomized workload:
//
//   1. Directory::lookup() must return exactly the profiles a model of the
//      published and withdrawn translators says match, in ascending-id order,
//      for arbitrary populations and queries.
//   2. The lazy-deletion scheduler must dispatch the same events, at the same
//      virtual times, with the same audit digest, as the seed's
//      priority_queue + linear-scan-cancellation scheduler (reproduced here
//      verbatim in miniature).
//   3. The payload kernels of the SOAP path: base64 encode/decode and XML
//      escaping must produce the same bytes, and decode the same error
//      messages, as the per-character reference loops reproduced here.
//   4. Transport::route() must offer each emit to the paths a walk of the
//      whole path table finds, in that order, under connect / disconnect /
//      unmap / rebind churn, and the stall count must match the paths that
//      stalled.
//   5. The ASCII text rules must classify every byte as <cctype> does in the
//      C locale, and MimeType::parse must match the <cctype> parser it
//      replaced.
//
// All workloads are seeded Rng-driven: failures replay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <clocale>
#include <cstring>
#include <deque>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/base64.hpp"
#include "common/log.hpp"
#include "common/rand.hpp"
#include "common/strings.hpp"
#include "core/umiddle.hpp"
#include "xml/xml.hpp"

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

// --- 1. directory lookup vs a model of its entries -----------------------------

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
    spec.name.assign(1, 'p');
    spec.name += std::to_string(p);
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
  profile.name = "dev-";
  profile.name += std::to_string(id);
  profile.name += '-';
  profile.name += rng.ident(4);
  profile.platform = kPlatforms[rng.below(std::size(kPlatforms))];
  profile.device_type = "RandomDevice";
  profile.node = NodeId(1);
  profile.shape = random_shape(rng);
  return profile;
}

/// A random constraint; kind, direction and type may each be left open.
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

TEST(HotpathEquivalenceTest, LookupMatchesPublishedProfileModel) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  ASSERT_TRUE(net.add_host("a").ok());
  ASSERT_TRUE(net.attach("a", lan).ok());
  core::RuntimeConfig cfg;
  cfg.node_id = 1;
  core::Runtime runtime(sched, net, "a", cfg);
  core::Directory& dir = runtime.directory();

  // The model: what was last published under each id and not withdrawn since.
  std::map<std::uint64_t, core::TranslatorProfile> model;
  auto publish = [&](core::TranslatorProfile p) {
    model[p.id.value()] = p;
    dir.publish_local(p);
  };
  Rng rng(20260807);
  constexpr std::uint64_t kPopulation = 1200;
  for (std::uint64_t id = 1; id <= kPopulation; ++id) publish(random_profile(id, rng));
  // Churn: withdrawals and shape-changing republishes.
  for (std::uint64_t i = 0; i < kPopulation / 10; ++i) {
    const std::uint64_t id = rng.between(1, kPopulation);
    model.erase(id);
    dir.withdraw_local(TranslatorId(id));
  }
  for (std::uint64_t i = 0; i < kPopulation / 20; ++i) {
    publish(random_profile(rng.between(1, kPopulation), rng));
  }

  std::size_t non_empty = 0;
  for (int trial = 0; trial < 200; ++trial) {
    core::Query q = random_query(rng);
    std::vector<std::uint64_t> expected;
    for (const auto& [id, p] : model) {
      if (core::matches(q, p)) expected.push_back(id);
    }
    ASSERT_EQ(ids_of(dir.lookup(q)), expected) << "divergence at trial " << trial;
    if (!expected.empty()) ++non_empty;
  }
  // The workload must actually exercise hits, not just vacuous misses.
  EXPECT_GT(non_empty, 50u);
}

TEST(HotpathEquivalenceTest, DirectorySurvivesExpireRepublishCrashInterleavings) {
  // The churn sources — soft-state expiry, tombstone-free republish under a
  // recycled id, whole-runtime crash/restart, and forged adverts naming local
  // translators — all mutate the directory's entries through different paths.
  // Interleave them randomly and assert that local translators only change
  // through the local API, that no advert makes our node own a translator,
  // and that the runtime's own looped-back adverts are counted but change
  // nothing.
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
  auto ghost = net.udp_bind({"ghost", cfg.directory_port}, [](auto, auto&) {});
  ASSERT_TRUE(ghost.ok());
  const net::GroupId group = net.group(cfg.group);

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
    const std::string adv = core::announce_text(p, core::NodeInfo{NodeId(sender), "ghost", 7701});
    ASSERT_TRUE(net.udp_multicast(ghost.value(), group, cfg.directory_port,
                                  make_payload(to_bytes(adv)))
                    .ok());
  };
  auto forge_announce = [&](std::uint64_t node, std::uint64_t k) {
    forge_announce_as(900 + node, ghost_id(node, k), 900 + node);
  };
  auto forge_bye_as = [&](std::uint64_t sender, std::uint64_t id) {
    const std::string bye =
        core::bye_text(TranslatorId(id), core::NodeInfo{NodeId(sender), "ghost", 7701});
    ASSERT_TRUE(net.udp_multicast(ghost.value(), group, cfg.directory_port,
                                  make_payload(to_bytes(bye)))
                    .ok());
  };
  auto local_id = [](std::uint64_t k) { return (1ull << 32) | (1 + k); };
  const obs::Counter& adverts_rx = net.metrics().counter("dir.adverts_rx");
  const obs::Counter& expired = net.metrics().counter("dir.expired");
  // What the local API last published under each local id.
  std::map<std::uint64_t, std::string> locals;
  auto all_profiles = [&] {
    std::vector<std::string> out;
    for (const auto& p : dir.lookup(core::Query{})) {
      out.push_back(p.id.to_string() + "/" + p.node.to_string() + "/" + p.name);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

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

    if (round % 40 == 39) {  // process death wipes every entry
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
    for (const auto& p : dir.lookup(core::Query{})) {
      if (p.node == NodeId(1)) {
        ASSERT_TRUE(locals.contains(p.id.value())) << "round " << round;
      }
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
  }
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
/// Its pending() counts the queued seqs that are not cancelled, so cancelling
/// a fired handle cannot skew it.
class SeedScheduler {
 public:
  using Handle = std::uint64_t;

  sim::TimePoint now() const { return now_; }

  Handle schedule_after(Duration delay, std::function<void()> fn, sim::EventTag tag = {}) {
    if (delay < Duration(0)) delay = Duration(0);
    sim::TimePoint when = now_ + delay;
    std::uint64_t seq = next_seq_++;
    queue_.push(Ev{when, seq, tag, std::move(fn)});
    queued_.insert(seq);
    return seq;
  }

  std::size_t pending() const {
    std::size_t cancelled_queued = 0;
    for (std::uint64_t seq : cancelled_) cancelled_queued += queued_.count(seq);
    return queued_.size() - cancelled_queued;
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
    queued_.erase(queue_.top().seq);
    queue_.pop();
    return true;
  }

  void dispatch_top() {
    Ev ev = queue_.top();  // const top(): the copy the optimized heap avoids
    queue_.pop();
    queued_.erase(ev.seq);
    now_ = ev.when;
    digest_.absorb(static_cast<std::uint64_t>(ev.when.count()));
    digest_.absorb(ev.seq);
    digest_.absorb(ev.tag.host);
    digest_.absorb(ev.tag.tag);
    ++dispatched_;
    ev.fn();
  }

  std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
  std::set<std::uint64_t> queued_;
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
  std::vector<std::size_t> pending;  ///< pending() after each top-level cancel
};

/// Deterministic stress workload run identically against both schedulers:
/// bursts of schedule/cancel pairs (many at equal timestamps), callbacks that
/// re-schedule chains and cancel other handles mid-dispatch, double-cancels,
/// cancels of already-fired events, and partial run_for() advances. pending()
/// is sampled after each top-level cancel, and a final round cancels handles
/// that all fired.
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
      result.pending.push_back(sched.pending());
    }
    if (i % 500 == 499) {
      sched.run_for(Duration(static_cast<std::int64_t>(rng.below(3000))));
    }
  }
  sched.run();
  for (int i = 0; i < 200; ++i) {
    sched.cancel(handles[rng.below(handles.size())]);  // every handle has fired
    result.pending.push_back(sched.pending());
  }

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
  ASSERT_EQ(actual.pending.size(), expected.pending.size());
  for (std::size_t i = 0; i < expected.pending.size(); ++i) {
    ASSERT_EQ(actual.pending[i], expected.pending[i]) << "pending() differs after cancel " << i;
  }
  EXPECT_EQ(expected.pending.back(), 0u);
  ASSERT_EQ(actual.fired.size(), expected.fired.size());
  for (std::size_t i = 0; i < expected.fired.size(); ++i) {
    ASSERT_EQ(actual.fired[i], expected.fired[i]) << "first divergence at dispatch " << i;
  }
}

/// NIC-burst workload: what Directory::refresh_tick leaves in the queues. Each
/// round sends a burst of 4000+ frames whose arrival times strictly increase,
/// as Network::send_frame serialises them on one NIC, and re-arms a
/// far-future refresh timer behind it, or in odd rounds arms the timer alone
/// first. Fired frames post zero-delay work, schedule short timeouts, re-arm
/// the timer and cancel events held in either queue. Each round then pops
/// through three quarters of its burst, past the point where consumed keys
/// are compacted, so the next burst lands behind the queued rest. If
/// `peak_queued` is given, the workload counts queued keys itself (scheduled -
/// fired - reaped) and keeps the largest count seen.
template <typename S>
DriverResult run_burst_driver(S& sched, std::size_t* peak_queued = nullptr) {
  using Handle = decltype(sched.schedule_after(Duration(0), std::function<void()>{},
                                               sim::EventTag{}));
  DriverResult result;
  Rng rng(0xB0257);
  std::vector<Handle> frames;  // mostly in the lane
  std::vector<Handle> others;  // posts and timeouts: mostly in the heap
  Handle timer{};
  std::uint64_t next_id = 0;
  std::uint64_t fired = 0;

  const auto cancel_one = [&](std::vector<Handle>& from) {
    if (from.empty()) return;
    sched.cancel(from[rng.below(from.size())]);
    ++result.cancels;
    result.pending.push_back(sched.pending());
  };
  std::function<Handle(Duration, bool)> spawn;
  const std::function<void(std::uint64_t, bool)> on_fire = [&](std::uint64_t id, bool frame) {
    ++fired;
    result.fired.emplace_back(sched.now().count(), id);
    if (!frame) return;
    if (rng.chance(0.05)) others.push_back(spawn(Duration(0), false));
    if (rng.chance(0.03)) {
      others.push_back(spawn(Duration(static_cast<std::int64_t>(rng.between(1, 500'000))), false));
    }
    if (rng.chance(0.01)) {
      sched.cancel(timer);
      timer = spawn(sim::seconds(1), false);
    }
    if (rng.chance(0.01)) cancel_one(frames);
    if (rng.chance(0.01)) cancel_one(others);
  };
  spawn = [&](Duration delay, bool frame) {
    const std::uint64_t id = next_id++;
    Handle h = sched.schedule_after(delay, [&on_fire, id, frame] { on_fire(id, frame); },
                                    sim::EventTag{id % 5, id % 11});
    ++result.scheduled;
    if constexpr (std::is_same_v<S, sim::Scheduler>) {
      if (peak_queued != nullptr) {
        *peak_queued = std::max<std::size_t>(
            *peak_queued, result.scheduled - fired - sched.cancellations_reaped());
      }
    }
    return h;
  };

  sim::TimePoint nic_free{0};
  for (int round = 0; round < 6; ++round) {
    // Odd rounds start from empty queues with the timer armed first, as
    // between two refreshes: the burst then arrives ahead of a lone key.
    const bool quiet = round % 2 == 1;
    if (quiet) {
      sched.run();
      timer = spawn(sim::seconds(1), false);
    }
    sim::TimePoint t = std::max(sched.now(), nic_free);
    const std::uint64_t burst = 4000 + rng.below(100);
    for (std::uint64_t k = 0; k < burst; ++k) {
      t += Duration(static_cast<std::int64_t>(1 + rng.below(800)));
      frames.push_back(spawn(t - sched.now(), true));
    }
    nic_free = t;
    if (!quiet) {
      sched.cancel(timer);
      timer = spawn(sim::seconds(1), false);
    }
    for (int c = 0; c < 30; ++c) cancel_one(frames);
    for (int c = 0; c < 10; ++c) cancel_one(others);
    sched.run_for((t - sched.now()) * 3 / 4);
  }
  sched.run();
  for (int c = 0; c < 20; ++c) cancel_one(frames);  // every handle has fired or was reaped

  result.digest = sched.trace_digest();
  result.dispatched = sched.events_dispatched();
  result.end_ns = sched.now().count();
  return result;
}

TEST(HotpathEquivalenceTest, SchedulerNicBurstsMatchSeedImplementation) {
  SeedScheduler reference;
  DriverResult expected = run_burst_driver(reference);

  sim::Scheduler optimized;
  std::size_t peak_queued = 0;
  DriverResult actual = run_burst_driver(optimized, &peak_queued);

  ASSERT_GT(expected.fired.size(), 16000u);
  ASSERT_GE(expected.cancels, 150u);

  EXPECT_EQ(actual.scheduled, expected.scheduled);
  EXPECT_EQ(actual.cancels, expected.cancels);
  EXPECT_EQ(actual.dispatched, expected.dispatched);
  EXPECT_EQ(actual.end_ns, expected.end_ns);
  EXPECT_EQ(actual.digest, expected.digest);
  ASSERT_EQ(actual.pending.size(), expected.pending.size());
  for (std::size_t i = 0; i < expected.pending.size(); ++i) {
    ASSERT_EQ(actual.pending[i], expected.pending[i]) << "pending() differs after cancel " << i;
  }
  ASSERT_EQ(actual.fired.size(), expected.fired.size());
  for (std::size_t i = 0; i < expected.fired.size(); ++i) {
    ASSERT_EQ(actual.fired[i], expected.fired[i]) << "first divergence at dispatch " << i;
  }
  // The high-water mark counts every queued key, lane and heap alike.
  EXPECT_GE(peak_queued, 4000u);
  EXPECT_EQ(optimized.heap_high_water(), peak_queued);
}


// --- 3. payload kernels vs per-character references --------------------------------

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Reference encoder: one push_back per output character.
std::string reference_encode(const Bytes& data) {
  std::string out;
  std::size_t i = 0;
  for (; i + 3 <= data.size(); i += 3) {
    std::uint32_t v = (std::uint32_t(data[i]) << 16) | (std::uint32_t(data[i + 1]) << 8) |
                      data[i + 2];
    for (int shift = 18; shift >= 0; shift -= 6) out.push_back(kB64Alphabet[(v >> shift) & 63]);
  }
  const std::size_t rem = data.size() - i;
  if (rem > 0) {
    std::uint32_t v = std::uint32_t(data[i]) << 16;
    if (rem == 2) v |= std::uint32_t(data[i + 1]) << 8;
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.push_back(rem == 2 ? kB64Alphabet[(v >> 6) & 63] : '=');
    out.push_back('=');
  }
  return out;
}

/// Reference decoder: the validating per-group loop, character by character.
Result<Bytes> reference_decode(std::string_view text) {
  if (text.size() % 4 != 0) {
    return make_error(Errc::parse_error, "base64 length not a multiple of 4");
  }
  Bytes out;
  for (std::size_t i = 0; i < text.size(); i += 4) {
    int pad = 0;
    std::uint32_t v = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        if (i + 4 != text.size() || j < 2) {
          return make_error(Errc::parse_error, "base64 misplaced padding");
        }
        ++pad;
        v <<= 6;
        continue;
      }
      if (pad > 0) return make_error(Errc::parse_error, "base64 data after padding");
      const char* hit = std::strchr(kB64Alphabet, c);
      if (c == '\0' || hit == nullptr) {
        return make_error(Errc::parse_error, "base64 invalid character");
      }
      v = (v << 6) | static_cast<std::uint32_t>(hit - kB64Alphabet);
    }
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    if (pad < 2) out.push_back(static_cast<std::uint8_t>(v >> 8));
    if (pad < 1) out.push_back(static_cast<std::uint8_t>(v));
  }
  return out;
}

/// The decode result as a comparable string: the bytes, or the error message.
std::string decode_outcome(const Result<Bytes>& r) {
  if (!r.ok()) return "error: " + r.error().message;
  return "ok: " + std::string(r.value().begin(), r.value().end());
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

TEST(HotpathEquivalenceTest, Base64MatchesRfc4648KnownAnswers) {
  // RFC 4648 §10 test vectors.
  const std::pair<std::string, std::string> vectors[] = {
      {"", ""},          {"f", "Zg=="},         {"fo", "Zm8="},         {"foo", "Zm9v"},
      {"foob", "Zm9vYg=="}, {"fooba", "Zm9vYmE="}, {"foobar", "Zm9vYmFy"},
  };
  for (const auto& [plain, encoded] : vectors) {
    const Bytes data(plain.begin(), plain.end());
    EXPECT_EQ(base64::encode(data), encoded) << plain;
    auto back = base64::decode(encoded);
    ASSERT_TRUE(back.ok()) << encoded;
    EXPECT_EQ(back.value(), data) << encoded;
  }
}

TEST(HotpathEquivalenceTest, Base64DecodeErrorsKeepTheirMessages) {
  auto message = [](std::string_view text) {
    auto r = base64::decode(text);
    return r.ok() ? std::string("ok") : r.error().message;
  };
  const std::string kLength = "base64 length not a multiple of 4";
  const std::string kMisplaced = "base64 misplaced padding";
  const std::string kAfter = "base64 data after padding";
  const std::string kInvalid = "base64 invalid character";

  EXPECT_EQ(message("Zm9"), kLength);
  EXPECT_EQ(message("Zm9vY"), kLength);
  EXPECT_EQ(message("Zm9v!"), kLength);  // the length check comes first

  // '=' at every position of every group of a three-group input: only
  // positions 2 and 3 of the last group are padding; anywhere else it is
  // misplaced, and a data character after a '=' is data after padding.
  const std::string base = "Zm9vYmFyYmF6";
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    std::string text = base;
    text[pos] = '=';
    const bool last_group = pos >= 8;
    const std::size_t col = pos % 4;
    std::string expected;
    if (!last_group || col < 2) {
      expected = kMisplaced;
    } else if (col == 2) {
      expected = kAfter;  // "YmF=" is fine, but "Ym=6" has data after padding
    } else {
      expected = "ok";
    }
    EXPECT_EQ(message(text), expected) << text;
  }
  EXPECT_EQ(message("Zg=="), "ok");
  EXPECT_EQ(message("Z==="), kMisplaced);
  EXPECT_EQ(message("Zg=a"), kAfter);

  // An invalid character in the body (the fast path's domain) and in the last
  // group (the validating loop's) give the same message.
  EXPECT_EQ(message("Zm!vYmFy"), kInvalid);
  EXPECT_EQ(message("Zm9vYm!y"), kInvalid);
  EXPECT_EQ(message("\xC3\xA9" "FyZm9v"), kInvalid);
  EXPECT_EQ(message("Zm9v\xC3\xA9" "Fy"), kInvalid);
  EXPECT_EQ(message(std::string("Zm9v\0mFy", 8)), kInvalid);
  EXPECT_EQ(message("Zm9v Fy="), kInvalid);

  // Several faults: the first one in text order wins, exactly as the
  // character-by-character loop would report it.
  EXPECT_EQ(message("Zm=vYm!y"), kMisplaced);
  EXPECT_EQ(message("Zm!vYm=y"), kInvalid);
  EXPECT_EQ(message("Zm!vYg=a"), kInvalid);
  EXPECT_EQ(message("Zm9vY!=a"), kInvalid);
}

TEST(HotpathEquivalenceTest, Base64KernelsMatchReferenceLoops) {
  Rng rng(0xb64b64b64ull);
  int decoded_ok = 0, decoded_err = 0;
  for (std::size_t len = 0; len <= 300; ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      const Bytes data = random_bytes(rng, len);
      const std::string encoded = base64::encode(data);
      ASSERT_EQ(encoded, reference_encode(data)) << "len " << len;
      auto back = base64::decode(encoded);
      ASSERT_TRUE(back.ok()) << "len " << len;
      ASSERT_EQ(back.value(), data) << "len " << len;

      // Mutated text: stomp a few characters with '=', bytes >= 0x80, other
      // ASCII, or alphabet characters, and sometimes change the length.
      std::string text = encoded;
      const std::size_t n_mutations = rng.below(4);
      for (std::size_t m = 0; m < n_mutations && !text.empty(); ++m) {
        const std::size_t at = rng.below(text.size());
        switch (rng.below(5)) {
          case 0: text[at] = '='; break;
          case 1: text[at] = static_cast<char>(0x80 + rng.below(128)); break;
          case 2: text[at] = static_cast<char>(rng.below(128)); break;
          case 3: text[at] = kB64Alphabet[rng.below(64)]; break;
          default:
            if (rng.chance(0.5)) {
              text.pop_back();
            } else {
              text.push_back(kB64Alphabet[rng.below(64)]);
            }
            break;
        }
      }
      const auto expected = reference_decode(text);
      (expected.ok() ? decoded_ok : decoded_err) += 1;
      ASSERT_EQ(decode_outcome(base64::decode(text)), decode_outcome(expected))
          << "len " << len << " text " << text;
    }
  }
  // The mutations must reach both outcomes for the comparison to mean much.
  EXPECT_GT(decoded_ok, 300);
  EXPECT_GT(decoded_err, 300);
}

/// Reference escaper: the find_first_of loop the table kernel replaced.
std::string reference_escape(std::string_view s) {
  std::string out;
  std::size_t plain = s.find_first_of("&<>\"'");
  while (plain != std::string_view::npos) {
    out.append(s.substr(0, plain));
    switch (s[plain]) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
    }
    s.remove_prefix(plain + 1);
    plain = s.find_first_of("&<>\"'");
  }
  out.append(s);
  return out;
}

TEST(HotpathEquivalenceTest, XmlEscapeMatchesFindFirstOfReference) {
  auto check = [](const std::string& s) {
    std::string out = "prefix|";  // escape_to appends; it must not touch what is there
    xml::escape_to(out, s);
    ASSERT_EQ(out, "prefix|" + reference_escape(s)) << s;
    ASSERT_EQ(xml::needs_escape(s), s.find_first_of("&<>\"'") != std::string::npos) << s;
  };
  // Escapables at the ends, adjacent to each other, and next to bytes >= 0x80.
  for (const std::string s : {"", "&", "<>", "\"'", "&abc", "abc'", "&&&", "a<>\"'&b",
                              "\xFF&\x80", "\xC3\xA9<\xC3\xA9", "plain text"}) {
    check(s);
  }
  Rng rng(0xe5ca9eull);
  constexpr char kPool[] = {'&', '<', '>', '"', '\'', 'a', 'Z', '0', '+', '/', '=', ' ',
                            '\n', '\0', '\x7F', '\x80', '\xC3', '\xA9', '\xFF'};
  for (std::size_t len = 0; len <= 300; ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      std::string s(len, 'x');
      // Density varies per trial, from a lone escapable to mostly escapables.
      const double density = trial == 0 ? 0.0 : 1.0 / static_cast<double>(1 << (3 * trial));
      for (char& c : s) {
        if (rng.chance(density)) c = "&<>\"'"[rng.below(5)];
        else if (rng.chance(0.3)) c = kPool[rng.below(std::size(kPool))];
      }
      check(s);
    }
  }
}

TEST(HotpathEquivalenceTest, XmlEscapeScanFindsEveryByteAtEveryOffset) {
  // Every byte value at every offset of plain strings of length 1..130: the
  // scan's 64-byte steps, the step boundaries and the byte-wise tail each see
  // all 256 values, among them the near misses '#', '$', '%', ';' and '?'
  // that the (c | 1) and (c | 2) compares must reject.
  std::string out;
  for (int value = 0; value < 256; ++value) {
    for (std::size_t len = 1; len <= 130; ++len) {
      for (std::size_t at = 0; at < len; ++at) {
        std::string s(len, 'x');
        s[at] = static_cast<char>(value);
        ASSERT_EQ(xml::needs_escape(s), s.find_first_of("&<>\"'") != std::string::npos)
            << "byte " << value << " at " << at << " of " << len;
        out.clear();
        xml::escape_to(out, s);
        ASSERT_EQ(out, reference_escape(s)) << "byte " << value << " at " << at << " of " << len;
      }
    }
  }
}

}  // namespace

// --- 4. route() vs a walk of the whole path table ----------------------------------

namespace core {

/// Reads the transport's path table, its per-source lists and its stall count.
struct TransportProbe {
  /// The reference: every path whose source is `src`, met by a walk of the
  /// whole table (what route() visited before per-source lists), with the
  /// destinations each is bound to.
  static std::vector<std::pair<PathId, std::vector<PortRef>>> scan(const Transport& t,
                                                                   const PortRef& src) {
    std::vector<std::pair<PathId, std::vector<PortRef>>> out;
    for (const auto& [id, path] : t.paths_) {
      if (path.src == src) out.emplace_back(id, path.bound);
    }
    return out;
  }

  /// Some path has a translation or a drain pending.
  static bool busy(const Transport& t) {
    return std::any_of(t.paths_.begin(), t.paths_.end(),
                       [](const auto& entry) { return entry.second.drain_scheduled; });
  }

  static std::vector<PathId> ids(const Transport& t) {
    std::vector<PathId> out;
    for (const auto& [id, path] : t.paths_) out.push_back(id);
    return out;
  }

  /// The per-source lists hold exactly the table's paths, each under its
  /// source in ascending id; the stall count is the number of stalled paths,
  /// and every path left holding messages with no drain scheduled is one.
  /// Sizes are compared before any listed path is read, so a list that kept
  /// an erased path fails here instead of reading freed memory.
  static std::string check(const Transport& t) {
    std::map<PortRef, std::vector<PathId>> expected;
    std::size_t stalled = 0;
    for (const auto& [id, path] : t.paths_) {
      expected[path.src].push_back(id);
      if (path.stalled) ++stalled;
      if (path.queue.bytes() > 0 && !path.drain_scheduled && !path.stalled) {
        return "path " + id.to_string() + " holds messages but is not counted as stalled";
      }
    }
    if (t.stalled_ != stalled) {
      return "stall count " + std::to_string(t.stalled_) + ", stalled paths " +
             std::to_string(stalled);
    }
    if (t.by_source_.size() != expected.size()) {
      return std::to_string(t.by_source_.size()) + " source lists for " +
             std::to_string(expected.size()) + " sources";
    }
    for (const auto& [src, want] : expected) {
      auto it = t.by_source_.find(src);
      if (it == t.by_source_.end() || it->second.size() != want.size()) {
        return "list of " + src.to_string() + " does not hold its paths";
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (it->second[i]->id != want[i]) {
          return "list of " + src.to_string() + " is not in ascending id at " + std::to_string(i);
        }
      }
    }
    return "";
  }
};

}  // namespace core

namespace {

/// One delivery: the sink it reached and the emit it came from.
using Delivery = std::pair<TranslatorId, std::uint64_t>;

/// A text/plain sink whose readiness the test gates; it logs every delivery.
class GateSink : public core::Translator {
 public:
  GateSink(std::string name, std::vector<Delivery>* log)
      : Translator(std::move(name), "umiddle", "umiddle:gate",
                   core::make_sink_shape("in", MimeType::of("text/plain"))),
        log_(log) {}

  Result<void> deliver(const std::string&, const core::Message& msg) override {
    std::uint64_t emit = 0;
    std::memcpy(&emit, msg.payload.data(), sizeof emit);
    log_->emplace_back(profile().id, emit);
    return ok_result();
  }
  bool ready(const std::string&) const override { return open_; }
  void set_open(bool open) {
    open_ = open;
    if (open) runtime()->notify_ready(profile().id);
  }
  bool open() const { return open_; }

 private:
  std::vector<Delivery>* log_;
  bool open_ = true;
};

TEST(HotpathEquivalenceTest, RouteOffersMatchTheFullPathScan) {
  // Two runtimes: every translator lives on A, so every path does; B only
  // connects and disconnects, so its paths carry ids from B's scope, above
  // all of A's, and reach A's table out of id order.
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::RuntimeConfig cfg_a;
  cfg_a.node_id = 1;
  core::RuntimeConfig cfg_b;
  cfg_b.node_id = 2;
  core::Runtime a(sched, net, "a", cfg_a);
  core::Runtime b(sched, net, "b", cfg_b);
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start().ok());
  core::Transport& transport = a.transport();
  // Until adverts and CONNECT/DISCONNECT frames have landed and no path has
  // a translation or drain pending.
  auto settle = [&] {
    do {
      sched.run_for(sim::milliseconds(100));
    } while (core::TransportProbe::busy(transport));
  };

  std::vector<Delivery> log;
  std::vector<Delivery> expected_log;
  std::map<TranslatorId, core::LambdaDevice*> sources;
  std::map<TranslatorId, GateSink*> sinks;
  const MimeType text = MimeType::of("text/plain");
  int names = 0;
  auto map_source = [&] {
    auto dev = std::make_unique<core::LambdaDevice>("source-" + std::to_string(names++),
                                                    core::make_source_shape("out", text));
    core::LambdaDevice* raw = dev.get();
    sources[a.map(std::move(dev)).take()] = raw;
  };
  auto map_sink = [&](Rng& rng) {
    const char* colour = rng.chance(0.5) ? "red" : "green";
    auto dev = std::make_unique<GateSink>(std::string(colour) + "-" + std::to_string(names++),
                                          &log);
    GateSink* raw = dev.get();
    sinks[a.map(std::move(dev)).take()] = raw;
  };
  Rng rng(0x80E7E);
  for (int i = 0; i < 4; ++i) map_source();
  for (int i = 0; i < 6; ++i) map_sink(rng);
  settle();

  // The model: each path's queued messages, as (sink, emit), and the fates
  // the table's churn must account.
  std::map<PathId, std::deque<Delivery>> queued;
  std::uint64_t expired = 0, discarded = 0, unmapped = 0;
  /// Every path B's CONNECT frames installed.
  std::set<PathId> b_installed;
  auto open = [&](TranslatorId sink) { return sinks.at(sink)->open(); };
  // Paths the last op drained, in the order it drained them, take their
  // fronts; each translation delivers, then drains its path again. All
  // payloads are one size, so each round of translations ends at one
  // instant and runs in the order the round before ran.
  auto run_rounds = [&](const std::vector<PathId>& drained) {
    std::vector<PathId> active;
    for (PathId id : drained) {
      if (!queued[id].empty() && open(queued[id].front().first)) active.push_back(id);
    }
    while (!active.empty()) {
      std::vector<PathId> next;
      for (PathId id : active) {
        expected_log.push_back(queued[id].front());
        queued[id].pop_front();
        if (!queued[id].empty() && open(queued[id].front().first)) next.push_back(id);
      }
      active = std::move(next);
    }
  };
  // Paths the table lost since the last op discard what they held.
  auto sync_paths = [&] {
    const std::vector<PathId> live = core::TransportProbe::ids(transport);
    for (auto it = queued.begin(); it != queued.end();) {
      if (std::binary_search(live.begin(), live.end(), it->first)) {
        ++it;
        continue;
      }
      discarded += it->second.size();
      it = queued.erase(it);
    }
    for (PathId id : live) {
      queued.try_emplace(id);
      if (id.value() >> 32 == cfg_b.node_id) b_installed.insert(id);
    }
  };
  auto counter = [&](std::string_view name) -> std::uint64_t {
    const obs::Snapshot snap = net.metrics().snapshot();
    const obs::SnapshotEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->count;
  };
  auto pick = [&](const auto& map) {
    auto it = map.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.below(map.size())));
    return it->first;
  };
  auto random_dst = [&]() -> std::variant<core::PortRef, core::Query> {
    switch (rng.below(3)) {
      case 0: return core::PortRef{pick(sinks), "in"};
      case 1: return core::Query().digital_input(text);
      default: return core::Query().digital_input(text).name_contains(rng.chance(0.5) ? "red"
                                                                                      : "green");
    }
  };
  std::vector<PathId> b_paths;
  std::uint64_t emits = 0;
  std::size_t stalled_emits = 0, stalled_erasures = 0;

  for (int op = 0; op < 600; ++op) {
    std::vector<PathId> drained;
    switch (rng.below(12)) {
      case 0:
      case 1: {  // a local connect, fixed or by query
        const core::PortRef src{pick(sources), "out"};
        auto dst = random_dst();
        auto r = std::holds_alternative<core::PortRef>(dst)
                     ? transport.connect(src, std::get<core::PortRef>(dst))
                     : transport.connect(src, std::get<core::Query>(dst));
        ASSERT_TRUE(r.ok()) << r.error().to_string();
        break;
      }
      case 2: {  // a connect from B: a CONNECT frame, a path with B's id on A
        const core::PortRef src{pick(sources), "out"};
        auto dst = random_dst();
        auto r = std::holds_alternative<core::PortRef>(dst)
                     ? b.transport().connect(src, std::get<core::PortRef>(dst))
                     : b.transport().connect(src, std::get<core::Query>(dst));
        if (r.ok()) b_paths.push_back(r.value());
        break;
      }
      case 3: {  // a disconnect, from A or, for B's paths, from B
        const std::vector<PathId> live = core::TransportProbe::ids(transport);
        if (live.empty()) break;
        const PathId id = live[rng.below(live.size())];
        if (!queued[id].empty()) ++stalled_erasures;
        const bool from_b = std::find(b_paths.begin(), b_paths.end(), id) != b_paths.end();
        ASSERT_TRUE((from_b && rng.chance(0.5) ? b.transport() : transport).disconnect(id).ok());
        break;
      }
      case 4: {  // a source goes, with its paths; a new one comes
        const TranslatorId id = pick(sources);
        for (const auto& [path, dsts] : core::TransportProbe::scan(transport, {id, "out"})) {
          if (!queued[path].empty()) ++stalled_erasures;
        }
        sources.erase(id);
        ASSERT_TRUE(a.unmap(id).ok());
        map_source();
        break;
      }
      case 5: {  // a sink goes, unbound everywhere; a new one is bound by
                 // the query paths it matches
        const TranslatorId id = pick(sinks);
        for (auto& [path, items] : queued) {
          unmapped += std::erase_if(items, [&](const Delivery& d) { return d.first == id; });
        }
        sinks.erase(id);
        ASSERT_TRUE(a.unmap(id).ok());
        map_sink(rng);
        break;
      }
      case 6: {  // a gate toggles; opening one resumes every path
        GateSink* sink = sinks.at(pick(sinks));
        sink->set_open(!sink->open());
        if (sink->open()) drained = core::TransportProbe::ids(transport);
        break;
      }
      default: {  // an emit, live or already past its deadline
        const core::PortRef src{pick(sources), "out"};
        const auto reference = core::TransportProbe::scan(transport, src);
        const bool late = rng.chance(0.15);
        std::map<PathId, std::uint64_t> expired_before;
        for (const auto& [id, dsts] : reference) {
          expired_before[id] = transport.stats(id)->messages_expired;
        }
        core::Message m;
        m.type = text;
        m.payload = Bytes(64, 0);
        const std::uint64_t n = ++emits;
        std::memcpy(m.payload.data(), &n, sizeof n);
        if (late) m.deadline_ns = 1;
        ASSERT_TRUE(sources.at(src.translator)->emit("out", std::move(m)).ok());
        for (const auto& [id, dsts] : reference) {
          // A late emit leaves every path it is offered to as expired.
          ASSERT_EQ(transport.stats(id)->messages_expired - expired_before[id],
                    late ? dsts.size() : 0u)
              << "path " << id.to_string() << " at op " << op;
          if (late) {
            expired += dsts.size();
            continue;
          }
          if (!queued[id].empty()) ++stalled_emits;
          for (const core::PortRef& dst : dsts) queued[id].emplace_back(dst.translator, n);
          drained.push_back(id);
        }
        break;
      }
    }
    settle();
    sync_paths();
    run_rounds(drained);
    ASSERT_EQ(core::TransportProbe::check(transport), "") << "op " << op;
    ASSERT_EQ(log, expected_log) << "op " << op;
    ASSERT_EQ(counter("delivery.expired"), expired) << "op " << op;
    ASSERT_EQ(counter("delivery.discarded"), discarded) << "op " << op;
    ASSERT_EQ(counter("delivery.unmapped"), unmapped) << "op " << op;
  }
  // The churn must reach the cases each part of the oracle is for.
  EXPECT_GT(log.size(), 500u);
  EXPECT_GT(b_installed.size(), 10u);
  EXPECT_GT(stalled_emits, 10u);
  EXPECT_GT(stalled_erasures, 5u);
  EXPECT_GT(expired, 20u);
  EXPECT_GT(unmapped, 5u);
}

// --- 5. the ASCII text rules vs <cctype> in the C locale ------------------------------

/// MimeType::parse as it was before the ASCII rule, on <cctype>: its result
/// as "type/subtype", or its error message.
std::string reference_mime_parse(std::string_view text) {
  auto space = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  while (!text.empty() && space(text.front())) text.remove_prefix(1);
  while (!text.empty() && space(text.back())) text.remove_suffix(1);
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    return "parse_error: mime type missing '/': " + std::string(text);
  }
  auto valid = [&](std::string_view s) {
    if (s.empty()) return false;
    for (char c : s) {
      if (space(c) || c == '/') return false;
    }
    return true;
  };
  auto lowered = [](std::string_view s) {
    std::string out(s);
    for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
  };
  if (!valid(text.substr(0, slash)) || !valid(text.substr(slash + 1))) {
    return "parse_error: malformed mime type: " + std::string(text);
  }
  return lowered(text.substr(0, slash)) + "/" + lowered(text.substr(slash + 1));
}

std::string mime_outcome(std::string_view text) {
  auto r = MimeType::parse(text);
  return r.ok() ? r.value().to_string() : r.error().to_string();
}

TEST(HotpathEquivalenceTest, AsciiTextRulesMatchCctypeInTheCLocale) {
  // Nothing in the library or this test sets a locale.
  ASSERT_STREQ(std::setlocale(LC_ALL, nullptr), "C");
  for (int value = 0; value < 256; ++value) {
    const char c = static_cast<char>(value);
    const auto u = static_cast<unsigned char>(value);
    ASSERT_EQ(strings::is_space(c), std::isspace(u) != 0) << value;
    ASSERT_EQ(strings::is_digit(c), std::isdigit(u) != 0) << value;
    ASSERT_EQ(strings::is_alpha(c), std::isalpha(u) != 0) << value;
    ASSERT_EQ(strings::is_alnum(c), std::isalnum(u) != 0) << value;
    ASSERT_EQ(strings::lower(c), static_cast<char>(std::tolower(u))) << value;
    ASSERT_EQ(strings::upper(c), static_cast<char>(std::toupper(u))) << value;
    for (int other = 0; other < 256; ++other) {
      const auto v = static_cast<unsigned char>(other);
      ASSERT_EQ(strings::iequals(std::string(1, c), std::string(1, static_cast<char>(other))),
                std::tolower(u) == std::tolower(v))
          << value << " vs " << other;
    }
  }
  // Every byte replacing, and inserted before, each position of " type/sub ".
  const std::string base = " type/sub ";
  ASSERT_EQ(mime_outcome(base), "type/sub");
  ASSERT_EQ(reference_mime_parse(base), "type/sub");
  for (int value = 0; value < 256; ++value) {
    for (std::size_t at = 0; at <= base.size(); ++at) {
      std::string inserted = base;
      inserted.insert(at, 1, static_cast<char>(value));
      ASSERT_EQ(mime_outcome(inserted), reference_mime_parse(inserted))
          << "byte " << value << " inserted at " << at;
      if (at == base.size()) continue;
      std::string replaced = base;
      replaced[at] = static_cast<char>(value);
      ASSERT_EQ(mime_outcome(replaced), reference_mime_parse(replaced))
          << "byte " << value << " at " << at;
    }
  }
}

}  // namespace
}  // namespace umiddle
