// Chaos harness: fault-injection scenarios against whole bridging worlds
// (DESIGN.md §10). Every scenario doubles as a determinism check — it is run
// twice from the same seed and must produce byte-identical telemetry
// (obs::world_json) and an identical scheduler trace digest, faults included:
// the fault plane draws from its own seeded Rng, so fault schedules replay.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bluetooth/bip.hpp"
#include "bluetooth/mapper.hpp"
#include "common/rand.hpp"
#include "conservation.hpp"
#include "core/umiddle.hpp"
#include "golden.hpp"
#include "mediabroker/mapper.hpp"
#include "mediabroker/server.hpp"
#include "motes/mapper.hpp"
#include "netsim/fault.hpp"
#include "obs/export.hpp"
#include "rmi/mapper.hpp"
#include "rmi/registry.hpp"
#include "upnp/devices.hpp"
#include "upnp/mapper.hpp"
#include "webservice/mapper.hpp"

namespace umiddle {
namespace {

using sim::milliseconds;
using sim::seconds;

/// The paper's Figure 5 world (Bluetooth camera on H1, UPnP TV on H2), the
/// standing target for fault injection.
struct ChaosWorld {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId lan;
  std::unique_ptr<bt::BluetoothMedium> piconet;
  std::unique_ptr<bt::BipCamera> camera;
  std::unique_ptr<upnp::MediaRendererTv> tv;
  core::UsdlLibrary library;
  std::unique_ptr<core::Runtime> h1;
  std::unique_ptr<core::Runtime> h2;

  ChaosWorld() {
    net::SegmentSpec spec;
    spec.name = "lan";
    spec.latency = sim::microseconds(100);
    lan = net.add_segment(spec);
    for (const char* h : {"h1", "h2", "tv-host"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, lan).ok());
    }
    piconet = std::make_unique<bt::BluetoothMedium>(net);
    camera = std::make_unique<bt::BipCamera>(*piconet, "Camera");
    EXPECT_TRUE(camera->power_on().ok());
    tv = std::make_unique<upnp::MediaRendererTv>(net, "tv-host", 8000, "TV");
    EXPECT_TRUE(tv->start().ok());

    bt::register_bt_usdl(library);
    upnp::register_upnp_usdl(library);
    h1 = std::make_unique<core::Runtime>(sched, net, "h1");
    h1->add_mapper(std::make_unique<bt::BtMapper>(*piconet, library));
    h2 = std::make_unique<core::Runtime>(sched, net, "h2");
    h2->add_mapper(std::make_unique<upnp::UpnpMapper>(library));
    EXPECT_TRUE(h1->start().ok());
    EXPECT_TRUE(h2->start().ok());
    sched.run_for(seconds(4));
  }

  /// Dynamic camera→TV path hosted on H1, as in Figure 5.
  PathId bridge() {
    auto cameras =
        h1->directory().lookup(core::Query().digital_output(MimeType::of("image/jpeg")));
    EXPECT_EQ(cameras.size(), 1u);
    auto path = h1->transport().connect(
        core::PortRef{cameras[0].id, "image-out"},
        core::Query().digital_input(MimeType::of("image/*")).platform("upnp"));
    EXPECT_TRUE(path.ok());
    return path.ok() ? path.value() : PathId{};
  }

  /// Counter value via snapshot: find() does not register, so reading a
  /// counter that never fired cannot perturb the telemetry we later compare.
  std::uint64_t counter(std::string_view name);
};

/// Counter value via snapshot, for worlds without a ChaosWorld wrapper.
std::uint64_t counter_of(net::Network& net, std::string_view name) {
  auto snap = net.metrics().snapshot();
  const obs::SnapshotEntry* e = snap.find(name);
  return e == nullptr ? 0 : e->count;
}

std::uint64_t ChaosWorld::counter(std::string_view name) { return counter_of(net, name); }

/// What a scenario run leaves behind; two same-seed runs must match exactly.
struct RunRecord {
  std::string telemetry;
  std::uint64_t digest = 0;
};

void finish(ChaosWorld& w, RunRecord* rec) {
  rec->telemetry = obs::world_json(w.net.metrics(), w.net.tracer());
  rec->digest = w.sched.trace_digest();
}

// --- scenario 1: mid-stream partition, self-healing bridge ----------------------

void partition_scenario(RunRecord* rec) {
  ChaosWorld w;
  w.bridge();
  w.camera->shutter(Bytes(30000, 0xD8), "before.jpg");
  w.sched.run_for(seconds(3));
  ASSERT_EQ(w.tv->rendered().size(), 1u);

  // Cut the LAN for 5 s: the established H1→H2 UMTP stream is reset at the
  // cut, every reconnect attempt inside the window fails fast, and directory
  // adverts are blackholed (harmless — max_age is 30 s).
  sim::TimePoint t0 = w.sched.now() + milliseconds(1);
  w.net.faults().cut(w.lan, t0, t0 + seconds(5));
  w.sched.run_for(seconds(1));
  EXPECT_TRUE(w.net.faults().partitioned(w.lan));
  EXPECT_EQ(w.net.faults().partitions(), 1u);

  // Shot taken mid-outage: it crosses the piconet fine, then waits in the
  // transport's bounded outage buffer (30 kB < outage_buffer_bytes).
  w.camera->shutter(Bytes(30000, 0xD8), "during.jpg");
  // Reconnect backoff is 100 ms·2^k capped at 2 s (+ jitter ≤ half), so the
  // first post-heal attempt lands within ~3 s of the heal.
  w.sched.run_for(seconds(19));

  EXPECT_FALSE(w.net.faults().partitioned(w.lan));
  ASSERT_EQ(w.tv->rendered().size(), 2u);  // zero post-recovery loss
  EXPECT_EQ(w.tv->rendered()[1].name, "during.jpg");
  EXPECT_EQ(w.tv->rendered()[1].bytes, 30000u);
  EXPECT_GE(w.counter("recovery.reconnects"), 1u);
  EXPECT_GE(w.counter("recovery.replays"), 1u);
  EXPECT_EQ(w.counter("recovery.outage_dropped"), 0u);
  EXPECT_EQ(w.counter("fault.partitions"), 1u);
  EXPECT_GT(w.counter("fault.frames_blackholed"), 0u);
  EXPECT_GE(w.counter("fault.stream_resets"), 1u);
  expect_conserved(w.net, 2, w.tv->rendered().size());
  finish(w, rec);
}

TEST(ChaosTest, BridgeSurvivesMidStreamPartition) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(partition_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(partition_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// --- scenario 2: mapper node crash + restart re-imports devices -----------------

void crash_restart_scenario(RunRecord* rec) {
  ChaosWorld w;
  w.bridge();
  w.camera->shutter(Bytes(8000, 0xD8), "before.jpg");
  w.sched.run_for(seconds(3));
  ASSERT_EQ(w.tv->rendered().size(), 1u);

  // H2 (the UPnP mapper node) dies: its sockets vanish, H1's UMTP link is
  // reset, nobody says bye.
  w.h2->crash();
  EXPECT_FALSE(w.h2->started());
  EXPECT_EQ(w.net.faults().crashes(), 1u);
  EXPECT_EQ(w.counter("fault.crashes"), 1u);
  w.sched.run_for(seconds(2));
  EXPECT_EQ(w.h2->directory().known_translators(), 0u);

  // Restart: the mapper re-discovers the TV and re-imports it (fresh process,
  // translator ids restart), the directory re-learns H1's camera via probe,
  // and H1's reconnect loop finds the listener again.
  ASSERT_TRUE(w.h2->start().ok());
  w.sched.run_for(seconds(6));
  EXPECT_EQ(w.h2->directory().lookup(core::Query().platform("upnp")).size(), 1u);
  EXPECT_EQ(w.h2->directory().lookup(core::Query().platform("bluetooth")).size(), 1u);

  // The dynamic path on H1 re-binds (same recycled translator id) and the
  // bridge carries traffic again.
  w.camera->shutter(Bytes(8000, 0xD8), "after.jpg");
  w.sched.run_for(seconds(4));
  ASSERT_EQ(w.tv->rendered().size(), 2u);
  EXPECT_EQ(w.tv->rendered()[1].name, "after.jpg");
  EXPECT_GE(w.counter("recovery.reconnects"), 1u);
  expect_conserved(w.net, 2, w.tv->rendered().size());
  finish(w, rec);
}

TEST(ChaosTest, MapperCrashAndRestartReimportsDevices) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(crash_restart_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(crash_restart_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// --- scenario 3: crashed node's entries expire, restart re-announces ------------

void expiry_scenario(RunRecord* rec) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  ra.directory().set_max_age(seconds(2));
  rb.directory().set_max_age(seconds(2));
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());

  int mapped = 0, unmapped = 0;
  core::LambdaListener listener([&](const core::TranslatorProfile&) { ++mapped; },
                                [&](const core::TranslatorProfile&) { ++unmapped; });
  rb.directory().add_directory_listener(&listener);

  (void)ra.map(std::make_unique<core::LambdaDevice>(
                   "Flaky device", core::make_source_shape("out", MimeType::of("image/jpeg"))))
      .take();
  sched.run_for(seconds(1));
  ASSERT_EQ(rb.directory().lookup(core::Query().platform("umiddle")).size(), 1u);
  EXPECT_EQ(mapped, 1);

  // A dies silently. B expires the entry once its lease (max_age 2 s) lapses.
  ra.crash();
  sched.run_for(seconds(4));
  EXPECT_EQ(rb.directory().lookup(core::Query().platform("umiddle")).size(), 0u);
  EXPECT_EQ(unmapped, 1);
  EXPECT_EQ(rb.directory().expire_stale(), 0u);  // idempotent: already clean
  EXPECT_EQ(counter_of(net, "dir.expired"), 1u);

  // A restarts and re-maps its device: B re-learns it as a fresh mapping.
  ASSERT_TRUE(ra.start().ok());
  (void)ra.map(std::make_unique<core::LambdaDevice>(
                   "Flaky device", core::make_source_shape("out", MimeType::of("image/jpeg"))))
      .take();
  sched.run_for(seconds(1));
  EXPECT_EQ(rb.directory().lookup(core::Query().platform("umiddle")).size(), 1u);
  EXPECT_EQ(mapped, 2);
  rb.directory().remove_directory_listener(&listener);

  rec->telemetry = obs::world_json(net.metrics(), net.tracer());
  rec->digest = sched.trace_digest();
}

TEST(ChaosTest, CrashedNodeEntriesExpireAndReappearOnRestart) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(expiry_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(expiry_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// --- scenario 3b: recycled translator id after restart (stale-state regression) -

TEST(ChaosTest, RestartWithRecycledIdRebindsWithoutStaleAnnouncement) {
  // A crashed-and-restarted node reuses its translator ids (the sequence
  // restarts with the process). If any serialized-announcement cache or
  // profile entry survived under the recycled id, peers would keep seeing the
  // *old* device. They must instead observe unmap(old) + map(new).
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");  // default max_age 30 s: nothing expires here
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());

  auto alpha = ra.map(std::make_unique<core::LambdaDevice>(
                          "Alpha", core::make_source_shape("out", MimeType::of("image/jpeg"))))
                   .take();
  sched.run_for(seconds(1));
  ASSERT_NE(rb.directory().profile(alpha), nullptr);
  EXPECT_EQ(rb.directory().profile(alpha)->name, "Alpha");

  std::vector<std::string> events;
  core::LambdaListener listener(
      [&](const core::TranslatorProfile& p) { events.push_back("map:" + p.name); },
      [&](const core::TranslatorProfile& p) { events.push_back("unmap:" + p.name); });
  rb.directory().add_directory_listener(&listener);

  ra.crash();
  sched.run_for(seconds(1));  // well within max_age: B still holds Alpha
  ASSERT_NE(rb.directory().profile(alpha), nullptr);

  ASSERT_TRUE(ra.start().ok());
  auto beta = ra.map(std::make_unique<core::LambdaDevice>(
                         "Beta", core::make_source_shape("out", MimeType::of("text/plain"))))
                  .take();
  ASSERT_EQ(beta, alpha);  // the id really is recycled
  sched.run_for(seconds(1));

  const core::TranslatorProfile* p = rb.directory().profile(alpha);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "Beta");
  core::PortQuery old_out;
  old_out.kind = core::PortKind::digital;
  old_out.direction = core::Direction::output;
  old_out.type = MimeType::of("image/jpeg");
  EXPECT_TRUE(rb.directory().lookup(core::Query().require(old_out)).empty());
  EXPECT_EQ(rb.directory()
                .lookup(core::Query().digital_output(MimeType::of("text/plain")))
                .size(),
            1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "unmap:Alpha");
  EXPECT_EQ(events[1], "map:Beta");
  rb.directory().remove_directory_listener(&listener);
}

// --- scenario 4: burst loss on the backbone ------------------------------------

void burst_loss_scenario(RunRecord* rec) {
  ChaosWorld w;
  // Gilbert–Elliott burst loss on the LAN, aggressive enough that advert
  // datagrams are lost in runs. Streams are lossless by model (DESIGN.md §4),
  // so UMTP framing never sees a gap and the UMTP frame reader cannot stall —
  // which is exactly what the end-to-end delivery below demonstrates.
  net::BurstLossSpec spec;
  spec.p_good_to_bad = 0.4;
  spec.p_bad_to_good = 0.3;
  spec.loss_good = 0.1;
  spec.loss_bad = 0.95;
  w.net.faults().set_burst_loss(w.lan, spec);

  w.bridge();
  w.camera->shutter(Bytes(30000, 0xD8), "bursty.jpg");
  w.sched.run_for(seconds(3));
  ASSERT_EQ(w.tv->rendered().size(), 1u);
  EXPECT_EQ(w.tv->rendered()[0].bytes, 30000u);

  // Let a couple of directory refresh cycles multicast through the loss chain.
  w.sched.run_for(seconds(21));
  EXPECT_GT(w.net.faults().burst_losses(), 0u);
  EXPECT_EQ(w.counter("fault.burst_losses"), w.net.faults().burst_losses());
  // Soft state survives: losses delay but do not kill refreshes within 30 s.
  EXPECT_EQ(w.h1->directory().lookup(core::Query().platform("upnp")).size(), 1u);
  EXPECT_EQ(w.h2->directory().lookup(core::Query().platform("bluetooth")).size(), 1u);
  expect_conserved(w.net, 1, w.tv->rendered().size());
  finish(w, rec);
}

TEST(ChaosTest, BurstLossNeverStallsTheBridge) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(burst_loss_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(burst_loss_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// --- scenario 5: exactly-once across a mid-stream cut (DESIGN.md §11) -----------

/// Two native runtimes on a slow (1 Mbps) LAN, so a steady message stream
/// keeps several UMTP DATA frames in flight / queued when the cut lands.
void exactly_once_scenario(RunRecord* rec) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentSpec spec;
  spec.name = "lan";
  spec.bandwidth_bps = 1e6;
  spec.latency = milliseconds(1);
  net::SegmentId lan = net.add_segment(spec);
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());

  auto src = std::make_unique<core::LambdaDevice>(
      "Sensor", core::make_source_shape("out", MimeType::of("image/jpeg")));
  core::LambdaDevice* src_raw = src.get();
  auto src_id = ra.map(std::move(src)).take();
  auto sink = std::make_unique<core::CollectorDevice>(
      "Recorder", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = rb.map(std::move(sink)).take();
  sched.run_for(seconds(1));
  ASSERT_TRUE(
      ra.transport().connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"}).ok());

  // Cut lands mid-burst: at 1 Mbps a 2 kB frame serializes for ~17 ms, so at
  // +400 ms several messages sit in the stream's send queue and on the medium.
  sim::TimePoint t0 = sched.now() + milliseconds(400);
  net.faults().cut(lan, t0, t0 + seconds(1));

  const int kMessages = 60;
  for (int i = 0; i < kMessages; ++i) {
    core::Message m;
    m.type = MimeType::of("image/jpeg");
    m.payload = Bytes(2000, 0xD8);
    m.meta["n"] = std::to_string(i);
    ASSERT_TRUE(src_raw->emit("out", std::move(m)).ok());
    sched.run_for(milliseconds(25));
  }
  sched.run_for(seconds(20));

  // The contract: every message exactly once, in order — the RESUME/ACK
  // handshake retires what the receiver counted, the SEQ replay re-sends only
  // the remainder, and the dedup window suppresses anything the race let both
  // paths carry.
  ASSERT_EQ(sink_raw->count(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(sink_raw->received()[static_cast<std::size_t>(i)].msg.meta.at("n"),
              std::to_string(i));
  }
  EXPECT_GE(counter_of(net, "recovery.reconnects"), 1u);
  EXPECT_GE(counter_of(net, "recovery.replays"), 1u);
  EXPECT_GE(counter_of(net, "delivery.acked_retired"), 1u);
  EXPECT_EQ(counter_of(net, "recovery.outage_dropped"), 0u);
  EXPECT_EQ(counter_of(net, "delivery.resume_gap"), 0u);
  expect_conserved(net, kMessages, sink_raw->count());
  rec->telemetry = obs::world_json(net.metrics(), net.tracer());
  rec->digest = sched.trace_digest();
}

TEST(ChaosTest, MidStreamCutDeliversEveryMessageExactlyOnce) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(exactly_once_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(exactly_once_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// A cut lands while a burst of DATA frames is queued and on the medium: the
// wire baggage staged for the frames it loses is never taken (their replays
// travel SEQ-wrapped on the new stream and carry none), so it must die with
// the reset stream instead of staying in the tracer for the world's life.
TEST(ChaosTest, CutLeavesNoBaggageBehindItsResetStream) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentSpec spec;
  spec.name = "lan";
  spec.bandwidth_bps = 1e6;
  spec.latency = milliseconds(1);
  const net::SegmentId lan = net.add_segment(spec);
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());
  auto src = std::make_unique<core::LambdaDevice>(
      "Sensor", core::make_source_shape("out", MimeType::of("image/jpeg")));
  core::LambdaDevice* src_raw = src.get();
  const TranslatorId src_id = ra.map(std::move(src)).take();
  auto sink = std::make_unique<core::CollectorDevice>(
      "Recorder", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  const TranslatorId sink_id = rb.map(std::move(sink)).take();
  sched.run_for(seconds(1));
  ASSERT_TRUE(
      ra.transport().connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"}).ok());

  // At 1 Mbps a 2 kB frame serializes for ~17 ms: 100 ms into a burst of 20,
  // most of it is still queued or in flight.
  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    core::Message m;
    m.type = MimeType::of("image/jpeg");
    m.payload = Bytes(2000, 0xD8);
    ASSERT_TRUE(src_raw->emit("out", std::move(m)).ok());
  }
  const sim::TimePoint t0 = sched.now() + milliseconds(100);
  net.faults().cut(lan, t0, t0 + seconds(1));
  sched.run_for(seconds(20));

  ASSERT_EQ(sink_raw->count(), static_cast<std::size_t>(kMessages));
  EXPECT_GE(counter_of(net, "recovery.replays"), 1u);
  EXPECT_EQ(net.tracer().baggage_channels(), 0u);
  // The wire spans of the frames lost with the reset stream ended with it.
  EXPECT_EQ(net.tracer().open_spans(), 0u);
}

// --- scenario 6: deadlines expire in the outage buffer instead of replaying -----

void deadline_outage_scenario(RunRecord* rec) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());

  auto src = std::make_unique<core::LambdaDevice>(
      "Sensor", core::make_source_shape("out", MimeType::of("image/jpeg")));
  core::LambdaDevice* src_raw = src.get();
  auto src_id = ra.map(std::move(src)).take();
  auto sink = std::make_unique<core::CollectorDevice>(
      "Live view", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = rb.map(std::move(sink)).take();
  sched.run_for(seconds(1));
  core::QosPolicy qos;
  qos.message_ttl = milliseconds(500);  // a live feed: stale frames are garbage
  ASSERT_TRUE(ra.transport()
                  .connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"}, qos)
                  .ok());

  auto shot = [&](const char* name) {
    core::Message m;
    m.type = MimeType::of("image/jpeg");
    m.payload = Bytes(1000, 0xD8);
    m.meta["name"] = name;
    ASSERT_TRUE(src_raw->emit("out", std::move(m)).ok());
  };
  shot("before");
  sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 1u);

  // 5 s cut, one frame emitted mid-outage. Its 500 ms TTL expires in the
  // link's outage buffer long before the link heals, so recovery must retire
  // it (a DATA_DL frame carries its deadline) rather than deliver stale data.
  sim::TimePoint t0 = sched.now() + milliseconds(1);
  net.faults().cut(lan, t0, t0 + seconds(5));
  sched.run_for(seconds(1));
  shot("stale");
  sched.run_for(seconds(19));
  shot("after");
  sched.run_for(seconds(2));

  ASSERT_EQ(sink_raw->count(), 2u);
  EXPECT_EQ(sink_raw->received()[0].msg.meta.at("name"), "before");
  EXPECT_EQ(sink_raw->received()[1].msg.meta.at("name"), "after");
  EXPECT_GE(counter_of(net, "recovery.reconnects"), 1u);
  EXPECT_GE(counter_of(net, "delivery.expired"), 1u);
  expect_conserved(net, 3, sink_raw->count());
  rec->telemetry = obs::world_json(net.metrics(), net.tracer());
  rec->digest = sched.trace_digest();
}

TEST(ChaosTest, DeadlinedMessagesExpireInOutageBufferInsteadOfReplayingStale) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(deadline_outage_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(deadline_outage_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// --- scenario 6b: a trailing expired outage entry must not desync sequencing ----

/// Regression for a seq-gap bug: recovery retires deadline-expired ledger
/// entries without replaying them, and the receiver counts plain frames
/// implicitly (+1 each). If the retired entry held the *highest* sequence
/// number, the receiver's count lagged the sender's next_seq after the first
/// recovery, and a second cut then replayed already-delivered frames past the
/// dedup window. next_seq realignment keeps the wire dense instead.
void trailing_expiry_scenario(RunRecord* rec) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());

  auto src = std::make_unique<core::LambdaDevice>(
      "Sensor", core::make_source_shape("out", MimeType::of("image/jpeg")));
  core::LambdaDevice* src_raw = src.get();
  auto src_id = ra.map(std::move(src)).take();
  auto sink = std::make_unique<core::CollectorDevice>(
      "Recorder", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = rb.map(std::move(sink)).take();
  sched.run_for(seconds(1));
  ASSERT_TRUE(
      ra.transport().connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"}).ok());

  auto shot = [&](int n, std::int64_t deadline_ns = 0) {
    core::Message m;
    m.type = MimeType::of("image/jpeg");
    m.payload = Bytes(1000, 0xD8);
    m.meta["n"] = std::to_string(n);
    m.deadline_ns = deadline_ns;
    ASSERT_TRUE(src_raw->emit("out", std::move(m)).ok());
  };
  shot(0);
  sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 1u);

  // First cut. Two messages join the outage buffer: a durable one, then a
  // short-deadline one that expires there — the trailing ledger entry.
  sim::TimePoint t0 = sched.now() + milliseconds(1);
  net.faults().cut(lan, t0, t0 + seconds(2));
  sched.run_for(milliseconds(100));
  shot(1);
  shot(2, (sched.now() + milliseconds(200)).count());
  sched.run_for(seconds(10));  // heal + recovery: 1 replayed, 2 expired unsent
  ASSERT_EQ(sink_raw->count(), 2u);
  EXPECT_GE(counter_of(net, "delivery.expired"), 1u);

  // Plain traffic after the recovery, then a second cut with one in-flight
  // message. The second RESUME/ACK exchange must retire exactly the frames
  // the receiver counted — no duplicates, no spurious retention gap.
  shot(3);
  shot(4);
  sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 4u);
  sim::TimePoint t1 = sched.now() + milliseconds(1);
  net.faults().cut(lan, t1, t1 + seconds(2));
  sched.run_for(milliseconds(100));
  shot(5);
  sched.run_for(seconds(10));

  ASSERT_EQ(sink_raw->count(), 5u);  // every survivor exactly once
  const char* expect[] = {"0", "1", "3", "4", "5"};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink_raw->received()[i].msg.meta.at("n"), expect[i]);
  }
  EXPECT_GE(counter_of(net, "recovery.reconnects"), 2u);
  EXPECT_EQ(counter_of(net, "delivery.resume_gap"), 0u);
  expect_conserved(net, 6, sink_raw->count());
  rec->telemetry = obs::world_json(net.metrics(), net.tracer());
  rec->digest = sched.trace_digest();
}

TEST(ChaosTest, TrailingExpiredOutageEntryDoesNotDesyncLaterRecovery) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(trailing_expiry_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(trailing_expiry_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// --- scenario 6c: receiver restart with nothing to replay stays in sequence -----

/// Regression for the kAckCountUnknown half of the same bug: the restarted
/// receiver realigns its count to base_seq - 1 and the sender drops its
/// sent-but-unacked prefix. With no unsent entries left to replay, the
/// sender's next_seq kept the pre-drop value, so the next plain frame jumped
/// the receiver's implicit count — a later recovery then double-delivered the
/// post-restart traffic and mis-fired the retention-gap path.
void receiver_restart_scenario(RunRecord* rec) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());

  auto src = std::make_unique<core::LambdaDevice>(
      "Sensor", core::make_source_shape("out", MimeType::of("image/jpeg")));
  core::LambdaDevice* src_raw = src.get();
  auto src_id = ra.map(std::move(src)).take();
  auto sink = std::make_unique<core::CollectorDevice>(
      "Recorder", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = rb.map(std::move(sink)).take();
  sched.run_for(seconds(1));
  ASSERT_TRUE(
      ra.transport().connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"}).ok());

  auto shot = [&](int n) {
    core::Message m;
    m.type = MimeType::of("image/jpeg");
    m.payload = Bytes(1000, 0xD8);
    m.meta["n"] = std::to_string(n);
    ASSERT_TRUE(src_raw->emit("out", std::move(m)).ok());
  };
  for (int n = 0; n < 3; ++n) shot(n);
  sched.run_for(seconds(1));  // delivered to the first sink incarnation

  // The receiver dies and restarts; the re-mapped sink recycles its id, so
  // the sender's path stays bound. The RESUME answer is kAckCountUnknown and
  // the sender's whole ledger is a sent-but-unacked prefix: everything is
  // dropped, nothing is replayed.
  const std::size_t first_incarnation = sink_raw->count();  // the crash destroys it
  rb.crash();
  sched.run_for(milliseconds(100));
  ASSERT_TRUE(rb.start().ok());
  auto sink2 = std::make_unique<core::CollectorDevice>(
      "Recorder", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink2_raw = sink2.get();
  ASSERT_EQ(rb.map(std::move(sink2)).take(), sink_id);  // id really is recycled
  sched.run_for(seconds(5));  // reconnect + RESUME/ACK long done
  EXPECT_GE(counter_of(net, "delivery.unacked_dropped"), 1u);

  // Plain traffic to the new incarnation, then a cut-and-heal: recovery must
  // retire exactly what the new incarnation counted.
  shot(3);
  shot(4);
  sched.run_for(seconds(1));
  ASSERT_EQ(sink2_raw->count(), 2u);
  sim::TimePoint t0 = sched.now() + milliseconds(1);
  net.faults().cut(lan, t0, t0 + seconds(2));
  sched.run_for(milliseconds(100));
  shot(5);
  sched.run_for(seconds(10));

  ASSERT_EQ(sink2_raw->count(), 3u);  // 3, 4, 5 — each exactly once
  const char* expect[] = {"3", "4", "5"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink2_raw->received()[i].msg.meta.at("n"), expect[i]);
  }
  EXPECT_EQ(counter_of(net, "delivery.resume_gap"), 0u);
  // The unacked prefix was delivered before the crash and also dropped:
  // conservation holds within the unacked_dropped bound.
  expect_conserved(net, 6, first_incarnation + sink2_raw->count());
  rec->telemetry = obs::world_json(net.metrics(), net.tracer());
  rec->digest = sched.trace_digest();
}

TEST(ChaosTest, ReceiverRestartWithEmptyReplaySetStaysInSequence) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(receiver_restart_scenario(&a));
  ASSERT_NO_FATAL_FAILURE(receiver_restart_scenario(&b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

// --- scenario 7: a lying peer cannot force duplicate delivery -------------------

TEST(ChaosTest, SeqFieldLiesAreSuppressedNotRedelivered) {
  // A raw (non-uMiddle) client speaks UMTP at the transport port and lies in
  // the sequencing fields: a SEQ replay of an already-counted frame must be
  // suppressed, a SEQ with an inflated number must not break later delivery,
  // and a forged ACK on the accepted stream must be ignored.
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "attacker"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  ASSERT_TRUE(ra.start().ok());
  auto sink = std::make_unique<core::CollectorDevice>(
      "Recorder", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = ra.map(std::move(sink)).take();
  sched.run_for(seconds(1));

  auto stream = net.connect("attacker", {"a", ra.config().umtp_port}).take();
  sched.run_for(milliseconds(10));  // handshake
  auto data = [&](const char* name) {
    core::Message m;
    m.type = MimeType::of("image/jpeg");
    m.payload = Bytes(100, 0xD8);
    m.meta["name"] = name;
    return core::umtp::encode_data(core::PortRef{sink_id, "in"}, m);
  };

  ASSERT_TRUE(stream->send(data("first")).ok());  // plain DATA: counted as seq 1
  sched.run_for(milliseconds(10));
  ASSERT_EQ(sink_raw->count(), 1u);

  // "Replay" of seq 1 with different content: the dedup window wins.
  ASSERT_TRUE(stream->send(core::umtp::encode_seq(1, data("dup-lie"))).ok());
  // Inflated seq: accepted (the window only moves forward) but delivered once.
  ASSERT_TRUE(stream->send(core::umtp::encode_seq(1000, data("jump"))).ok());
  // Forged cumulative ACK (hand-crafted bytes; ACKs belong to client streams).
  ByteWriter forged;
  forged.u32(17);
  forged.u8(5);  // FrameType::ack
  forged.u64(0xDEAD);
  forged.u64(0xBEEF);
  ASSERT_TRUE(stream->send(forged.take()).ok());
  // Life goes on: a further plain DATA frame still delivers.
  ASSERT_TRUE(stream->send(data("second")).ok());
  sched.run_for(milliseconds(50));

  ASSERT_EQ(sink_raw->count(), 3u);
  EXPECT_EQ(sink_raw->received()[0].msg.meta.at("name"), "first");
  EXPECT_EQ(sink_raw->received()[1].msg.meta.at("name"), "jump");
  EXPECT_EQ(sink_raw->received()[2].msg.meta.at("name"), "second");
  EXPECT_EQ(counter_of(net, "delivery.dup_suppressed"), 1u);
}

// --- scenario 9: mapper restarts keep the registry poll rate ------------------------

/// One uMiddle node whose mapper polls a registry every second (RMI or WS),
/// with one native service listed there. Once the service is imported, the
/// polls are the only streams the world opens, so net.stream.connects counts
/// registry polls.
struct PollWorld {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  core::UsdlLibrary library;
  std::unique_ptr<rmi::RmiRegistry> rmi_registry;
  std::unique_ptr<rmi::RmiEchoService> echo;
  std::unique_ptr<ws::WsRegistry> ws_registry;
  std::unique_ptr<ws::WsService> weather;
  std::unique_ptr<core::Runtime> node;
  std::string platform;

  explicit PollWorld(std::string which) : platform(std::move(which)) {
    net::SegmentSpec spec;
    spec.latency = sim::microseconds(100);
    net::SegmentId lan = net.add_segment(spec);
    for (const char* h : {"reg", "svc", "umnode"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, lan).ok());
    }
    node = std::make_unique<core::Runtime>(sched, net, "umnode");
    if (platform == "rmi") {
      rmi::register_rmi_usdl(library);
      rmi_registry = std::make_unique<rmi::RmiRegistry>(net, "reg");
      EXPECT_TRUE(rmi_registry->start().ok());
      echo = std::make_unique<rmi::RmiEchoService>(net, "svc", 2001, "echo1",
                                                   rmi_registry->endpoint());
      EXPECT_TRUE(echo->start().ok());
      node->add_mapper(std::make_unique<rmi::RmiMapper>(rmi_registry->endpoint(), library,
                                                        1098, seconds(1)));
    } else {
      ws::register_ws_usdl(library);
      ws_registry = std::make_unique<ws::WsRegistry>(net, "reg");
      EXPECT_TRUE(ws_registry->start().ok());
      weather = std::make_unique<ws::WsService>(net, "svc", 8080, "weather-1", "weather");
      EXPECT_TRUE(weather->start().ok());
      ws::ws_register(net, "svc", ws_registry->listing_url(),
                      ws::WsEntry{"weather-1", "weather", weather->endpoint_url()},
                      [](Result<void>) {});
      node->add_mapper(std::make_unique<ws::WsMapper>(ws_registry->listing_url(), library,
                                                      8801, seconds(1)));
    }
    EXPECT_TRUE(node->start().ok());
    sched.run_for(seconds(3));
    EXPECT_EQ(imported(), 1u);
  }

  std::size_t imported() {
    return node->directory().lookup(core::Query().platform(platform)).size();
  }
  std::uint64_t connects() { return counter_of(net, "net.stream.connects"); }

  /// Step until a registry poll opens its stream: its listing is in flight.
  void until_poll() {
    const std::uint64_t before = connects();
    while (connects() == before) ASSERT_TRUE(sched.step());
  }

  /// Registry connects in the 10 s starting at the next poll.
  std::uint64_t polls_in_10s() {
    const std::uint64_t before = connects();
    until_poll();
    sched.run_for(seconds(10));
    return connects() - before;
  }
};

struct Restart {
  const char* platform;
  bool crash;      ///< Runtime::crash() instead of Runtime::stop()
  bool in_flight;  ///< restart while a listing is in flight, not between polls
};

void PrintTo(const Restart& r, std::ostream* os) {
  *os << r.platform << (r.crash ? " crash" : " stop") << (r.in_flight ? " mid-listing" : "");
}

class MapperRestartTest : public ::testing::TestWithParam<Restart> {};

void restart_scenario(const Restart& r, RunRecord* rec) {
  PollWorld w(r.platform);
  ASSERT_EQ(w.polls_in_10s(), 10u);

  // Restart at once, then again after 2 s down: a stopped mapper neither
  // polls nor imports, whatever was in flight when it stopped.
  for (sim::Duration down : {sim::Duration(0), sim::Duration(seconds(2))}) {
    ASSERT_NO_FATAL_FAILURE(w.until_poll());
    if (!r.in_flight) w.sched.run_for(milliseconds(300));  // listing done, next poll pending
    if (r.crash) {
      w.node->crash();
    } else {
      w.node->stop();
    }
    const std::uint64_t before = w.connects();
    if (down > sim::Duration(0)) w.sched.run_for(down);
    EXPECT_EQ(w.connects(), before);
    EXPECT_EQ(w.imported(), 0u);
    ASSERT_TRUE(w.node->start().ok());
    w.sched.run_for(seconds(3));

    // One poll loop, not one per start(), and the service is imported again.
    EXPECT_EQ(w.imported(), 1u);
    EXPECT_EQ(w.polls_in_10s(), 10u);
  }
  rec->telemetry = obs::world_json(w.net.metrics(), w.net.tracer());
  rec->digest = w.sched.trace_digest();
}

TEST_P(MapperRestartTest, PollRateSurvivesRestart) {
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(restart_scenario(GetParam(), &a));
  ASSERT_NO_FATAL_FAILURE(restart_scenario(GetParam(), &b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, MapperRestartTest,
    ::testing::Values(Restart{"rmi", false, false}, Restart{"rmi", false, true},
                      Restart{"rmi", true, false}, Restart{"rmi", true, true},
                      Restart{"ws", false, false}, Restart{"ws", false, true},
                      Restart{"ws", true, false}, Restart{"ws", true, true}),
    [](const ::testing::TestParamInfo<Restart>& info) {
      return std::string(info.param.platform) + (info.param.crash ? "_crash" : "_stop") +
             (info.param.in_flight ? "_mid_listing" : "_between_polls");
    });

// A destroyed runtime's pending poll must not fire into freed memory (run
// under ASan: `ctest -L chaos` in the sanitizer build).
TEST(ChaosTest, DestroyingARuntimeWithAPollPendingIsClean) {
  for (const char* platform : {"rmi", "ws"}) {
    PollWorld w(platform);
    ASSERT_NO_FATAL_FAILURE(w.until_poll());
    w.sched.run_for(milliseconds(300));  // the next poll is pending
    w.node.reset();
    const std::uint64_t before = w.connects();
    w.sched.run_for(seconds(5));
    EXPECT_EQ(w.connects(), before) << platform;
  }
}

// A destroyed runtime's pending instantiation must not map into freed memory.
TEST(ChaosTest, DestroyingARuntimeWithAnInstantiationPendingIsClean) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  ASSERT_TRUE(net.add_host("a").ok());
  ASSERT_TRUE(net.attach("a", lan).ok());
  auto runtime = std::make_unique<core::Runtime>(sched, net, "a");
  ASSERT_TRUE(runtime->start().ok());
  bool done = false;
  (void)runtime->instantiate(
      std::make_unique<core::LambdaDevice>(
          "Sensor", core::make_source_shape("out", MimeType::of("text/plain"))),
      [&done](Result<TranslatorId>) { done = true; });
  sched.run_for(milliseconds(10));  // the instantiation cost is still being charged
  runtime.reset();
  sched.run_for(seconds(1));
  EXPECT_FALSE(done);
}

// A destroyed runtime's pending translation must not touch freed memory, and
// its span still closes (the span-pairing invariant of tests/obs_test).
TEST(ChaosTest, DestroyingARuntimeWithAMessageInTranslationIsClean) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  ASSERT_TRUE(net.add_host("a").ok());
  ASSERT_TRUE(net.attach("a", lan).ok());
  auto runtime = std::make_unique<core::Runtime>(sched, net, "a");
  ASSERT_TRUE(runtime->start().ok());
  auto src = std::make_unique<core::LambdaDevice>(
      "Sensor", core::make_source_shape("out", MimeType::of("text/plain")));
  core::LambdaDevice* src_raw = src.get();
  auto src_id = runtime->map(std::move(src)).take();
  auto sink_id = runtime
                     ->map(std::make_unique<core::CollectorDevice>(
                         "Recorder", core::make_sink_shape("in", MimeType::of("text/plain"))))
                     .take();
  ASSERT_TRUE(runtime->transport()
                  .connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"})
                  .ok());
  ASSERT_TRUE(src_raw->emit("out", core::Message::text(MimeType::of("text/plain"), "hi")).ok());
  sched.run_for(sim::microseconds(500));  // inside the 1.2 ms translation cost
  EXPECT_EQ(net.tracer().open_spans(), 1u);
  runtime.reset();
  sched.run_for(seconds(1));
  EXPECT_EQ(net.tracer().open_spans(), 0u);
  expect_conserved(net, 1, 0);  // stopped by the destructor: discarded
}

// A destroyed runtime's pending directory probe reply must not fire into freed
// memory: runtime A is destroyed 2 ms after runtime B's start-up probe.
TEST(ChaosTest, DestroyingARuntimeWithAProbeReplyPendingIsClean) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentSpec spec;
  spec.latency = sim::microseconds(100);
  net::SegmentId lan = net.add_segment(spec);
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  auto a = std::make_unique<core::Runtime>(sched, net, "a");
  core::Runtime b(sched, net, "b");
  ASSERT_TRUE(a->start().ok());
  sched.run_for(seconds(1));
  ASSERT_TRUE(b.start().ok());  // multicasts a probe; A answers after a jitter
  sched.run_for(milliseconds(2));
  a.reset();
  sched.run_for(seconds(1));
  EXPECT_EQ(b.directory().known_translators(), 0u);
}

// A destroyed device's pending SSDP search reply must not fire into freed
// memory: the light is destroyed 5 ms after a control point's M-SEARCH.
TEST(ChaosTest, DestroyingADeviceWithASearchReplyPendingIsClean) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentSpec spec;
  spec.latency = sim::microseconds(100);
  net::SegmentId lan = net.add_segment(spec);
  for (const char* h : {"cp", "dev"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  auto light = std::make_unique<upnp::BinaryLight>(net, "dev");
  ASSERT_TRUE(light->start().ok());
  upnp::ControlPoint cp(net, "cp");
  int found = 0;
  cp.on_device([&found](const upnp::DeviceDescription&, const std::string&) { ++found; });
  ASSERT_TRUE(cp.start().ok());
  sched.run_for(seconds(1));
  ASSERT_TRUE(cp.search().ok());
  sched.run_for(milliseconds(5));  // the reply waits out its MX spread (>= 20 ms)
  light.reset();
  sched.run_for(seconds(3));
  EXPECT_EQ(found, 0);
}

// --- scenario 10: the mapper import table ---------------------------------------

/// One uMiddle node ("umnode") with one mapper and one native device of
/// `platform` on host "dev". Registry polls run every 20 ms and motes report
/// every 10 ms with a 40 ms silence timeout, so a vanished device is noticed
/// well inside one instantiation cost (>= 115 ms).
struct ImportWorld {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  core::UsdlLibrary library;
  std::string platform;
  std::unique_ptr<upnp::BinaryLight> light;
  std::unique_ptr<bt::BluetoothMedium> piconet;
  std::unique_ptr<bt::BipCamera> camera;
  std::unique_ptr<mb::MbServer> mb_server;
  std::unique_ptr<mb::MbClient> producer;
  std::unique_ptr<rmi::RmiRegistry> rmi_registry;
  std::unique_ptr<rmi::RmiEchoService> echo;
  std::unique_ptr<ws::WsRegistry> ws_registry;
  std::unique_ptr<ws::WsService> weather;
  std::unique_ptr<motes::MoteField> field;
  std::unique_ptr<motes::Mote> mote;
  /// Translators of `platform` ever mapped on the node.
  std::size_t mapped = 0;
  core::LambdaListener listener{[this](const core::TranslatorProfile& p) {
                                  if (p.platform == platform) ++mapped;
                                },
                                [](const core::TranslatorProfile&) {}};
  std::unique_ptr<core::Runtime> node;

  explicit ImportWorld(std::string which) : platform(std::move(which)) {
    net::SegmentSpec spec;
    spec.latency = sim::microseconds(100);
    net::SegmentId lan = net.add_segment(spec);
    for (const char* h : {"dev", "umnode"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, lan).ok());
    }
    node = std::make_unique<core::Runtime>(sched, net, "umnode");
    if (platform == "upnp") {
      upnp::register_upnp_usdl(library);
      light = std::make_unique<upnp::BinaryLight>(net, "dev");
      EXPECT_TRUE(light->start().ok());
      node->add_mapper(std::make_unique<upnp::UpnpMapper>(library));
    } else if (platform == "bluetooth") {
      bt::register_bt_usdl(library);
      piconet = std::make_unique<bt::BluetoothMedium>(net);
      camera = std::make_unique<bt::BipCamera>(*piconet, "Camera");
      EXPECT_TRUE(camera->power_on().ok());
      node->add_mapper(std::make_unique<bt::BtMapper>(*piconet, library));
    } else if (platform == "mb") {
      mb::register_mb_usdl(library);
      mb_server = std::make_unique<mb::MbServer>(net, "dev");
      EXPECT_TRUE(mb_server->start().ok());
      producer = std::make_unique<mb::MbClient>(net, "dev", mb_server->endpoint());
      EXPECT_TRUE(producer->connect().ok());
      EXPECT_TRUE(producer->produce("media", "application/octet-stream").ok());
      node->add_mapper(std::make_unique<mb::MbMapper>(mb_server->endpoint(), library));
    } else if (platform == "rmi") {
      rmi::register_rmi_usdl(library);
      rmi_registry = std::make_unique<rmi::RmiRegistry>(net, "dev");
      EXPECT_TRUE(rmi_registry->start().ok());
      echo = std::make_unique<rmi::RmiEchoService>(net, "dev", 2001, "echo1",
                                                   rmi_registry->endpoint());
      EXPECT_TRUE(echo->start().ok());
      node->add_mapper(std::make_unique<rmi::RmiMapper>(rmi_registry->endpoint(), library,
                                                        1098, milliseconds(20)));
    } else if (platform == "ws") {
      ws::register_ws_usdl(library);
      ws_registry = std::make_unique<ws::WsRegistry>(net, "dev");
      EXPECT_TRUE(ws_registry->start().ok());
      weather = std::make_unique<ws::WsService>(net, "dev", 8080, "weather-1", "weather");
      EXPECT_TRUE(weather->start().ok());
      ws::ws_register(net, "dev", ws_registry->listing_url(),
                      ws::WsEntry{"weather-1", "weather", weather->endpoint_url()},
                      [](Result<void>) {});
      node->add_mapper(std::make_unique<ws::WsMapper>(ws_registry->listing_url(), library,
                                                      8801, milliseconds(20)));
    } else {
      motes::register_motes_usdl(library);
      field = std::make_unique<motes::MoteField>(net, 0.0);
      mote = std::make_unique<motes::Mote>(*field, 5, motes::SensorKind::light,
                                           milliseconds(10));
      EXPECT_TRUE(mote->start().ok());
      node->add_mapper(std::make_unique<motes::MoteMapper>(*field, library, milliseconds(40)));
    }
    node->directory().add_directory_listener(&listener);
    EXPECT_TRUE(node->start().ok());
  }

  std::size_t imported() const {
    return node->directory().lookup(core::Query().platform(platform)).size();
  }

  /// The native device leaves the way its platform says so.
  void vanish() {
    if (light) light->stop();  // ssdp:byebye
    if (camera) camera->power_off();
    if (producer) {
      EXPECT_TRUE(producer->retire("media").ok());
    }
    if (echo) echo->stop();  // unbinds from the registry
    if (weather) {
      ws::ws_unregister(net, "dev", ws_registry->listing_url(), "weather-1",
                        [](Result<void>) {});
    }
    if (mote) mote->stop();  // falls silent
  }
};

/// When a fault-free ImportWorld first maps its device.
sim::TimePoint first_mapped_at(const std::string& platform) {
  ImportWorld w(platform);
  while (w.mapped == 0 && w.sched.now() < sim::TimePoint(seconds(10))) {
    if (!w.sched.step()) break;
  }
  EXPECT_EQ(w.mapped, 1u) << platform;
  return w.sched.now();
}

enum class Lifecycle { stop, crash, vanish };

struct ImportCase {
  const char* platform;
  Lifecycle fault;
  bool mid_import;  ///< fault while the first import is in flight
};

std::string case_name(const ImportCase& c) {
  const char* fault[] = {"stop", "crash", "vanish"};
  return std::string(c.platform) + "_" + fault[static_cast<int>(c.fault)] +
         (c.mid_import ? "_mid_import" : "_between_imports");
}

void PrintTo(const ImportCase& c, std::ostream* os) { *os << case_name(c); }

class ImportLifecycleTest : public ::testing::TestWithParam<ImportCase> {};

void import_lifecycle_scenario(const ImportCase& c, sim::TimePoint mapped_at,
                               RunRecord* rec) {
  ImportWorld w(c.platform);
  if (c.mid_import) {
    // 100 ms before the first import lands; every instantiation costs more.
    w.sched.run_until(mapped_at - milliseconds(100));
    ASSERT_EQ(w.mapped, 0u);
  } else {
    w.sched.run_until(mapped_at + seconds(1));
    ASSERT_EQ(w.imported(), 1u);
  }

  if (c.fault == Lifecycle::vanish) {
    // An abandoned import maps nothing: no zombie translator, not even briefly.
    w.vanish();
    w.sched.run_for(seconds(3));
    EXPECT_EQ(w.mapped, c.mid_import ? 0u : 1u);
    EXPECT_EQ(w.imported(), 0u);
  } else {
    // The first restart follows the chosen fault point, the second a steady
    // state: each re-imports the one live device exactly once.
    for (int round = 0; round < 2; ++round) {
      const std::size_t mapped_before = w.mapped;
      if (c.fault == Lifecycle::crash) {
        w.node->crash();
      } else {
        w.node->stop();
      }
      EXPECT_EQ(w.imported(), 0u) << "round " << round;
      w.sched.run_for(seconds(2));
      EXPECT_EQ(w.imported(), 0u) << "round " << round << ": mapped into a dead runtime";
      EXPECT_EQ(w.mapped, mapped_before) << "round " << round;
      ASSERT_TRUE(w.node->start().ok());
      w.sched.run_for(seconds(5));
      EXPECT_EQ(w.imported(), 1u) << "round " << round << ": not re-imported";
    }
  }
  EXPECT_EQ(w.net.tracer().open_spans(), 0u);
  rec->telemetry = obs::world_json(w.net.metrics(), w.net.tracer());
  rec->digest = w.sched.trace_digest();
}

TEST_P(ImportLifecycleTest, OneTranslatorPerLiveDevice) {
  const sim::TimePoint mapped_at = first_mapped_at(GetParam().platform);
  RunRecord a, b;
  ASSERT_NO_FATAL_FAILURE(import_lifecycle_scenario(GetParam(), mapped_at, &a));
  ASSERT_NO_FATAL_FAILURE(import_lifecycle_scenario(GetParam(), mapped_at, &b));
  EXPECT_EQ(a.digest, b.digest);
  expect_golden_digest("chaos", a.digest);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

std::vector<ImportCase> import_cases() {
  std::vector<ImportCase> cases;
  for (const char* platform : {"upnp", "bluetooth", "mb", "rmi", "ws", "motes"}) {
    for (Lifecycle fault : {Lifecycle::stop, Lifecycle::crash}) {
      cases.push_back({platform, fault, false});
      cases.push_back({platform, fault, true});
    }
    cases.push_back({platform, Lifecycle::vanish, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, ImportLifecycleTest, ::testing::ValuesIn(import_cases()),
    [](const ::testing::TestParamInfo<ImportCase>& info) { return case_name(info.param); });

// A UPnP node crashed at any point of discovery (SSDP search, description
// fetch, description parse, instantiation) leaves nothing behind: no callback
// into the destroyed control point, no translator, no open span.
TEST(ChaosTest, UpnpCrashAnywhereInDiscoveryIsClean) {
  for (sim::Duration at(0); at <= milliseconds(1500); at += milliseconds(5)) {
    ImportWorld w("upnp");
    w.sched.run_for(at);
    w.node->crash();
    w.sched.run_for(seconds(3));
    EXPECT_EQ(w.imported(), 0u) << sim::to_millis(at) << " ms";
    EXPECT_EQ(w.net.tracer().open_spans(), 0u) << sim::to_millis(at) << " ms";
  }
}

// --- no route: one fate, never also a forward ----------------------------------

TEST(ChaosTest, NoRouteIsOneFateNotAForwardAndADrop) {
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());
  auto src = std::make_unique<core::LambdaDevice>(
      "Sensor", core::make_source_shape("out", MimeType::of("text/plain")));
  core::LambdaDevice* src_raw = src.get();
  auto src_id = ra.map(std::move(src)).take();
  auto sink = std::make_unique<core::CollectorDevice>(
      "Recorder", core::make_sink_shape("in", MimeType::of("text/plain")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = rb.map(std::move(sink)).take();
  sched.run_for(seconds(1));
  PathId path =
      ra.transport().connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"}).take();

  // The LAN is cut before the first emit, so the link to b can never open.
  net.faults().partition_now(lan);
  ASSERT_TRUE(src_raw->emit("out", core::Message::text(MimeType::of("text/plain"), "x")).ok());
  sched.run_for(seconds(1));

  const core::PathStats* stats = ra.transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_forwarded, 0u);
  EXPECT_EQ(stats->messages_forwarded + stats->messages_dropped + stats->messages_expired, 1u);
  EXPECT_EQ(counter_of(net, "delivery.no_route"), 1u);
  EXPECT_EQ(sink_raw->count(), 0u);
  expect_conserved(net, 1, sink_raw->count());
}

// --- randomized fault schedules: every message reaches exactly one fate ---------

/// One seed of the sweep. Node a hosts three sources, node b one sink per
/// path. Paths: src0 fans out to a durable path and a 800 ms TTL path, src1
/// has a 300 ms TTL path, src2 a shaped drop_oldest bounded path (it sheds).
/// The seed draws a bursty emit stream and a fault schedule: partitions (in
/// one seed of four, a single cut long enough to give the link up), a crash
/// and restart of node b, resets of the newest stream and a Gilbert–Elliott
/// loss burst.
struct SweepRun {
  RunRecord record;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
};

SweepRun fate_sweep(std::uint64_t seed) {
  constexpr std::size_t kSources = 3;
  constexpr std::size_t kPaths = 4;
  constexpr std::size_t kSourceOf[kPaths] = {0, 0, 1, 2};
  const MimeType type = MimeType::of("application/octet-stream");
  SweepRun run;

  sim::Scheduler sched;
  net::Network net(sched, seed);
  net::SegmentSpec spec;
  spec.name = "lan";
  spec.latency = milliseconds(1);
  net::SegmentId lan = net.add_segment(spec);
  for (const char* h : {"a", "b"}) {
    EXPECT_TRUE(net.add_host(h).ok());
    EXPECT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime ra(sched, net, "a");
  core::Runtime rb(sched, net, "b");
  EXPECT_TRUE(ra.start().ok());
  EXPECT_TRUE(rb.start().ok());

  std::vector<core::LambdaDevice*> sources;
  std::vector<TranslatorId> src_ids;
  for (std::size_t s = 0; s < kSources; ++s) {
    auto dev = std::make_unique<core::LambdaDevice>("src" + std::to_string(s),
                                                    core::make_source_shape("out", type));
    sources.push_back(dev.get());
    src_ids.push_back(ra.map(std::move(dev)).take());
  }
  // Sinks live in node b's process and die with it; what they saw is kept
  // here. A restart re-maps them in the same order, so their ids recycle.
  std::set<std::pair<std::size_t, std::string>> seen;
  std::vector<TranslatorId> sink_ids;
  auto map_sinks = [&]() {
    sink_ids.clear();
    for (std::size_t p = 0; p < kPaths; ++p) {
      auto dev = std::make_unique<core::LambdaDevice>(
          "sink" + std::to_string(p), core::make_sink_shape("in", type),
          [&run, &seen, p](const std::string&, const core::Message& msg) {
            if (seen.emplace(p, msg.meta.at("k")).second) {
              ++run.delivered;
            } else {
              ++run.duplicates;
            }
            return ok_result();
          });
      sink_ids.push_back(rb.map(std::move(dev)).take());
    }
  };
  map_sinks();
  sched.run_for(seconds(1));

  std::vector<PathId> paths;
  for (std::size_t p = 0; p < kPaths; ++p) {
    core::QosPolicy qos;
    if (p == 1) qos.message_ttl = milliseconds(800);
    if (p == 2) qos.message_ttl = milliseconds(300);
    if (p == 3) {
      qos.rate_bytes_per_sec = 4000;
      qos.burst_bytes = 1500;
      qos.max_buffered_bytes = 4000;
      qos.shed = core::ShedPolicy::drop_oldest;
    }
    paths.push_back(ra.transport()
                        .connect(core::PortRef{src_ids[kSourceOf[p]], "out"},
                                 core::PortRef{sink_ids[p], "in"}, qos)
                        .take());
  }

  Rng rng(seed);
  auto draw_ms = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return milliseconds(static_cast<std::int64_t>(rng.between(lo, hi)));
  };
  const sim::TimePoint t0 = sched.now();
  // Faults, each starting inside the 20 s emit window. A long cut outlasts
  // every reconnect attempt; a cut inside it would heal it early, so it comes
  // alone.
  const bool give_up = rng.below(4) == 0;
  if (give_up) {
    const sim::TimePoint from = t0 + draw_ms(1000, 3000);
    net.faults().cut(lan, from, from + seconds(21));
  }
  for (std::uint64_t i = give_up ? 0 : rng.between(1, 3); i > 0; --i) {
    const sim::TimePoint from = t0 + draw_ms(1000, 17000);
    net.faults().cut(lan, from, from + draw_ms(200, 4000));
  }
  if (rng.below(2) == 0) {
    const sim::TimePoint crash = t0 + draw_ms(2000, 16000);
    sched.schedule_at(crash, [&rb]() { rb.crash(); });
    sched.schedule_at(crash + draw_ms(100, 2000), [&rb, &map_sinks]() {
      EXPECT_TRUE(rb.start().ok());
      map_sinks();
    });
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    // The newest connection: stream ids come in client/server pairs.
    sched.schedule_at(t0 + draw_ms(1000, 18000), [&net]() {
      const std::uint64_t connects = counter_of(net, "net.stream.connects");
      if (connects > 0) net.faults().reset_stream(StreamId(2 * connects - 1));
    });
  }
  if (rng.below(2) == 0) {
    const sim::TimePoint from = t0 + draw_ms(1000, 15000);
    net::BurstLossSpec burst;
    burst.p_good_to_bad = 0.3;
    burst.p_bad_to_good = 0.3;
    burst.loss_bad = 0.9;
    sched.schedule_at(from, [&net, lan, burst]() { net.faults().set_burst_loss(lan, burst); });
    sched.schedule_at(from + seconds(3), [&net, lan]() { net.faults().clear_burst_loss(lan); });
  }

  // The emit stream: bursts of 0.2-2 s, in which every 20-60 ms one source
  // emits a 200-1500 B message, apart by quiet gaps of 0.2-3 s (so a cut
  // often ends with a stale message at the tail of the outage buffer).
  // Offered counts the destinations each emit is bound to at that moment.
  std::uint64_t k = 0;
  sim::TimePoint burst_end = t0;
  for (sim::TimePoint t = t0; t < t0 + seconds(20);) {
    if (t >= burst_end) {
      t = t + draw_ms(200, 3000);
      burst_end = t + draw_ms(200, 2000);
    }
    t = t + draw_ms(20, 60);
    // 32-bit, so that the capture fits a sim::Callback beside its six references.
    const auto s = static_cast<std::uint32_t>(rng.below(kSources));
    const auto bytes = static_cast<std::uint32_t>(rng.between(200, 1500));
    sched.schedule_at(t, [&, s, bytes, key = k++]() {
      for (std::size_t p = 0; p < kPaths; ++p) {
        if (kSourceOf[p] == s) run.offered += ra.transport().bound_destinations(paths[p]).size();
      }
      core::Message m;
      m.type = type;
      m.payload = Bytes(bytes, static_cast<std::uint8_t>(key));
      m.meta["k"] = std::to_string(key);
      EXPECT_TRUE(sources[s]->emit("out", std::move(m)).ok());
    });
  }
  sched.run_for(seconds(60));  // every fault healed, every link settled

  expect_conserved(net, run.offered, run.delivered);
  run.record.telemetry = obs::world_json(net.metrics(), net.tracer());
  run.record.digest = sched.trace_digest();
  return run;
}

class FateSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FateSweepTest, EveryMessageReachesOneFateExactlyOnce) {
  const SweepRun a = fate_sweep(GetParam());
  EXPECT_GT(a.offered, 0u);
  EXPECT_EQ(a.duplicates, 0u);
  const SweepRun b = fate_sweep(GetParam());
  EXPECT_EQ(a.record.digest, b.record.digest);
  expect_golden_digest("chaos", a.record.digest);
  EXPECT_EQ(a.record.telemetry, b.record.telemetry);
}

INSTANTIATE_TEST_SUITE_P(Chaos, FateSweepTest, ::testing::Range<std::uint64_t>(1, 65));

// --- fault-free worlds are untouched --------------------------------------------

TEST(ChaosTest, FaultFreeWorldDrawsNothingFromTheFaultPlane) {
  ChaosWorld w;
  w.bridge();
  w.camera->shutter(Bytes(5000, 0xD8), "clean.jpg");
  w.sched.run_for(seconds(3));
  ASSERT_EQ(w.tv->rendered().size(), 1u);
  EXPECT_EQ(w.net.faults().partitions(), 0u);
  EXPECT_EQ(w.net.faults().crashes(), 0u);
  EXPECT_EQ(w.net.faults().streams_reset(), 0u);
  EXPECT_EQ(w.net.faults().frames_blackholed(), 0u);
  EXPECT_EQ(w.net.faults().burst_losses(), 0u);
  // None of the fault/recovery counters may even exist in the snapshot: they
  // register lazily at fault time, keeping fault-free telemetry byte-identical
  // to a world built before the fault plane existed.
  auto snap = w.net.metrics().snapshot();
  for (const char* name :
       {"fault.partitions", "fault.crashes", "fault.stream_resets", "fault.frames_blackholed",
        "fault.burst_losses", "recovery.reconnects", "recovery.replays", "recovery.link_down",
        "recovery.giveups", "recovery.outage_dropped"}) {
    EXPECT_EQ(snap.find(name), nullptr) << name << " registered without a fault";
  }
  expect_conserved(w.net, 1, w.tv->rendered().size());
}

}  // namespace
}  // namespace umiddle
