// Telemetry-plane tests: histogram bucketing edges, registry ordering, span
// pairing under translator failure, and the same-seed ⇒ byte-identical
// snapshot/trace determinism contract (DESIGN.md §9).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "bluetooth/bip.hpp"
#include "bluetooth/hidp.hpp"
#include "bluetooth/mapper.hpp"
#include "core/umiddle.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "upnp/devices.hpp"
#include "upnp/mapper.hpp"

namespace {

using namespace umiddle;

// --- histograms -------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({10, 20, 30});
  h.observe(5);    // below first bound -> bucket 0
  h.observe(10);   // exactly on a bound -> that bucket (inclusive)
  h.observe(11);   // just above -> next bucket
  h.observe(20);   // boundary again
  h.observe(30);   // last bound
  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 0u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 76);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 30);
}

TEST(HistogramTest, OverflowAndUnderflow) {
  obs::Histogram h({0, 100});
  h.observe(101);   // above the last bound -> overflow bucket
  h.observe(1000);  // way above
  h.observe(-5);    // negative: bucket 0 absorbs (no explicit underflow bucket)
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 0u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 1000);
}

TEST(HistogramTest, BoundsAreSortedAndDeduped) {
  obs::Histogram h({30, 10, 20, 20});
  EXPECT_EQ(h.bounds(), (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(h.buckets().size(), 4u);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  obs::Histogram h(obs::latency_bounds_ns());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

// --- registry ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotPreservesRegistrationOrder) {
  obs::MetricsRegistry reg;
  reg.counter("zebra").inc();
  reg.gauge("apple").set(7);
  reg.histogram("mango", {1, 2}).observe(1);
  obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "zebra");
  EXPECT_EQ(snap.entries[1].name, "apple");
  EXPECT_EQ(snap.entries[2].name, "mango");
}

TEST(MetricsRegistryTest, GetOrCreateReturnsSameInstrument) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("hits");
  obs::Counter& b = reg.counter("hits");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchShadowsInsteadOfAliasing) {
  obs::MetricsRegistry reg;
  reg.counter("x").inc();
  reg.gauge("x").set(-1);  // programming error: stays visible as a duplicate
  obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "x");
  EXPECT_EQ(snap.entries[0].kind, obs::SnapshotEntry::Kind::counter);
  EXPECT_EQ(snap.entries[1].name, "x");
  EXPECT_EQ(snap.entries[1].kind, obs::SnapshotEntry::Kind::gauge);
}

TEST(MetricsRegistryTest, CollectorsRunAtSnapshotTime) {
  obs::MetricsRegistry reg;
  int sampled = 0;
  reg.add_collector([&reg, &sampled]() { reg.gauge("sampled").set(++sampled); });
  (void)reg.snapshot();
  obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* e = snap.find("sampled");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 2);
}

// --- tracer -----------------------------------------------------------------------------

TEST(TracerTest, SpanPairingAndNoOpEnds) {
  obs::Tracer t;
  const std::uint64_t trace = t.new_trace();
  std::uint64_t s = t.begin_span(trace, "translate", "node", sim::TimePoint(100));
  EXPECT_EQ(t.open_spans(), 1u);
  t.end_span(s, sim::TimePoint(150));
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.spans()[s - 1].duration(), sim::Duration(50));
  t.end_span(s, sim::TimePoint(999));  // double-end: no-op
  EXPECT_EQ(t.spans()[s - 1].end, sim::TimePoint(150));
  t.end_span(0, sim::TimePoint(1));  // id 0: no-op
}

TEST(TracerTest, CapacityDropsAreCountedAndDeterministic) {
  obs::Tracer t;
  t.set_capacity(1);
  std::uint64_t first = t.begin_span(1, "a", "n", sim::TimePoint(0));
  std::uint64_t second = t.begin_span(1, "b", "n", sim::TimePoint(0));
  EXPECT_NE(first, 0u);
  EXPECT_EQ(second, 0u);
  EXPECT_EQ(t.dropped(), 1u);
  t.end_span(second, sim::TimePoint(5));  // dropped span: harmless
}

TEST(TracerTest, BaggageChannelIsFifoPerChannel) {
  obs::Tracer t;
  t.stage(7, 100, 1);
  t.stage(7, 200, 2);
  t.stage(8, 300, 3);
  auto a = t.take(7);
  auto b = t.take(7);
  auto c = t.take(8);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->trace, 100u);
  EXPECT_EQ(b->trace, 200u);
  EXPECT_EQ(c->trace, 300u);
  EXPECT_FALSE(t.take(7).has_value());
  EXPECT_FALSE(t.take(99).has_value());
}

TEST(TracerTest, EmptiedBaggageQueueStaysUntilItsChannelIsForgotten) {
  obs::Tracer t;
  const sim::TimePoint t0(0);
  t.stage(7, 100, t.begin_span(100, "wire", "a", t0));
  ASSERT_TRUE(t.take(7).has_value());
  // An idle link keeps its queue, so the next DATA frame does not rebuild it.
  EXPECT_EQ(t.baggage_channels(), 1u);
  t.stage(7, 200, t.begin_span(200, "wire", "a", t0));
  const std::uint64_t lost = t.begin_span(300, "wire", "a", t0);
  t.stage(8, 300, lost);  // a frame lost with its stream: never taken
  EXPECT_EQ(t.baggage_channels(), 2u);
  EXPECT_EQ(t.open_spans(), 3u);
  const sim::TimePoint reset(5000);
  t.forget(8, reset);
  t.forget(99, reset);  // unknown channel: no-op
  EXPECT_EQ(t.baggage_channels(), 1u);
  // The forgotten staged span ends when its stream did; the others stay open.
  EXPECT_TRUE(t.spans()[lost - 1].closed);
  EXPECT_EQ(t.spans()[lost - 1].end, reset);
  EXPECT_EQ(t.open_spans(), 2u);
  EXPECT_FALSE(t.take(8).has_value());
  EXPECT_EQ(t.take(7)->trace, 200u);
  t.forget(7, reset);
  EXPECT_EQ(t.baggage_channels(), 0u);
}

TEST(TracerTest, NamesAndTracksShareOneInternTable) {
  obs::Tracer t;
  const std::uint32_t wire = t.intern("wire");
  const std::uint32_t host = t.intern("host-a");
  EXPECT_NE(wire, host);
  EXPECT_EQ(t.intern("wire"), wire);
  EXPECT_EQ(t.intern(std::string("host-") + "a"), host);
  EXPECT_EQ(t.text(wire), "wire");
  EXPECT_EQ(t.text(host), "host-a");
  // The string_view forms intern into the same table as the id forms.
  const std::uint64_t a = t.begin_span(1, "wire", "host-a", sim::TimePoint(0));
  const std::uint64_t b = t.begin_span(1, wire, host, sim::TimePoint(0));
  t.instant(1, "host-a", "wire", sim::TimePoint(0));  // a name may double as a track
  EXPECT_EQ(t.spans()[a - 1].name, wire);
  EXPECT_EQ(t.spans()[b - 1].track, host);
  EXPECT_EQ(t.spans()[2].name, host);
  EXPECT_EQ(t.spans()[2].track, wire);
  EXPECT_EQ(t.intern("translate"), 2u);  // nothing else was added
}

TEST(TracerTest, CapacityDropsIdFormSpansAndInstants) {
  obs::Tracer t;
  t.set_capacity(2);
  const std::uint32_t name = t.intern("wire");
  const std::uint32_t track = t.intern("n");
  EXPECT_EQ(t.begin_span(1, name, track, sim::TimePoint(0)), 1u);
  t.instant(1, name, track, sim::TimePoint(0));
  EXPECT_EQ(t.begin_span(1, name, track, sim::TimePoint(0)), 0u);
  t.instant(1, "deliver", "n", sim::TimePoint(0));
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_EQ(t.open_spans(), 1u);
}

// Three names interleaved over two tracks. "alpha" is interned first but
// appears second, so the tids follow first appearance, not intern order,
// and the aggregates are sorted by name.
TEST(TracerTest, ExportsResolveInternedNamesAndTracksByteForByte) {
  obs::Tracer t;
  (void)t.intern("alpha");
  const std::uint64_t wire = t.begin_span(1, "wire", "beta", sim::TimePoint(1000));
  t.instant(1, "deliver", "alpha", sim::TimePoint(1500));
  const std::uint64_t translate = t.begin_span(2, "translate", "beta", sim::TimePoint(2000));
  t.end_span(translate, sim::TimePoint(2250));
  t.end_span(wire, sim::TimePoint(3000));
  const std::uint64_t second = t.begin_span(2, "wire", "alpha", sim::TimePoint(4000));
  t.end_span(second, sim::TimePoint(4500));
  (void)t.begin_span(3, "translate", "alpha", sim::TimePoint(5000));  // left open

  EXPECT_EQ(obs::chrome_trace_json(t),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
            "\"args\":{\"name\":\"beta\"}},"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
            "\"args\":{\"name\":\"alpha\"}},"
            "{\"name\":\"wire\",\"cat\":\"umiddle\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":1.000,\"dur\":2.000,\"args\":{\"trace\":1}},"
            "{\"name\":\"deliver\",\"cat\":\"umiddle\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
            "\"ts\":1.500,\"dur\":0.000,\"args\":{\"trace\":1}},"
            "{\"name\":\"translate\",\"cat\":\"umiddle\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":2.000,\"dur\":0.250,\"args\":{\"trace\":2}},"
            "{\"name\":\"wire\",\"cat\":\"umiddle\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
            "\"ts\":4.000,\"dur\":0.500,\"args\":{\"trace\":2}}]}");

  obs::MetricsRegistry metrics;
  EXPECT_EQ(obs::world_json(metrics, t),
            "{\"schema\":1,\"metrics\":{},\"histograms\":{},\"spans\":{"
            "\"deliver\":{\"count\":1,\"total_ns\":0,\"min_ns\":0,\"max_ns\":0},"
            "\"translate\":{\"count\":1,\"total_ns\":250,\"min_ns\":250,\"max_ns\":250},"
            "\"wire\":{\"count\":2,\"total_ns\":2500,\"min_ns\":500,\"max_ns\":2000}},"
            "\"trace\":{\"spans\":5,\"open\":1,\"dropped\":0}}");
}

// --- spans close on translator failure paths --------------------------------------------

// Unmap the mouse translator while a 21 ms VML translation is in flight: the
// translation callback must still close its span (the tracer outlives the
// translator), leaving no span open once the world settles.
TEST(SpanFailurePathTest, UnmapMidTranslationLeavesNoOpenSpans) {
  sim::Scheduler sched;
  net::Network net(sched);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  (void)net.add_host("umnode");
  (void)net.attach("umnode", lan);
  bt::BluetoothMedium medium(net);
  bt::HidMouse mouse(medium);
  ASSERT_TRUE(mouse.power_on().ok());
  core::UsdlLibrary library;
  bt::register_bt_usdl(library);
  core::Runtime runtime(sched, net, "umnode");
  runtime.add_mapper(std::make_unique<bt::BtMapper>(medium, library));
  ASSERT_TRUE(runtime.start().ok());
  sched.run_for(sim::seconds(3));

  auto mice = runtime.directory().lookup(core::Query().platform("bluetooth"));
  ASSERT_EQ(mice.size(), 1u);

  mouse.move(1, 1);
  sched.run_for(sim::milliseconds(10));  // report delivered; translation pending
  ASSERT_TRUE(runtime.unmap(mice[0].id).ok());
  sched.run_for(sim::seconds(1));

  bool saw_vml = false;
  for (const obs::Span& s : net.tracer().spans()) {
    if (net.tracer().text(s.name) == "translate.vml") saw_vml = true;
    EXPECT_TRUE(s.closed) << "open span: " << net.tracer().text(s.name);
  }
  EXPECT_TRUE(saw_vml) << "translation never started; test timing assumption broken";
  EXPECT_EQ(net.tracer().open_spans(), 0u);
}

// --- determinism ------------------------------------------------------------------------

struct WorldDump {
  std::string metrics;
  std::string trace;
};

// A condensed camera→TV world (the Fig. 5 pipeline): two runtimes, both
// mappers, two photos across UMTP. Returns both exports.
WorldDump run_bridged_world() {
  sim::Scheduler sched;
  net::Network net(sched);
  net::SegmentSpec lan_spec;
  lan_spec.name = "lan";
  net::SegmentId lan = net.add_segment(lan_spec);
  for (const char* host : {"living-room", "media-cabinet", "tv-host"}) {
    (void)net.add_host(host);
    (void)net.attach(host, lan);
  }
  bt::BluetoothMedium piconet(net);
  bt::BipCamera camera(piconet, "Cam");
  (void)camera.power_on();
  upnp::MediaRendererTv tv(net, "tv-host", 8000, "TV");
  (void)tv.start();
  core::UsdlLibrary library;
  bt::register_bt_usdl(library);
  upnp::register_upnp_usdl(library);
  core::Runtime h1(sched, net, "living-room");
  h1.add_mapper(std::make_unique<bt::BtMapper>(piconet, library));
  core::Runtime h2(sched, net, "media-cabinet");
  h2.add_mapper(std::make_unique<upnp::UpnpMapper>(library));
  (void)h1.start();
  (void)h2.start();
  sched.run_for(sim::seconds(4));

  auto cameras = h1.directory().lookup(core::Query().digital_output(MimeType::of("image/*")));
  EXPECT_EQ(cameras.size(), 1u);
  if (cameras.size() == 1) {
    (void)h1.transport().connect(
        core::PortRef{cameras[0].id, "image-out"},
        core::Query().digital_input(MimeType::of("image/*")).platform("upnp"));
    for (int i = 0; i < 2; ++i) {
      camera.shutter(Bytes(20000, 0xD8), "p.jpg");
      sched.run_for(sim::seconds(3));
    }
    EXPECT_EQ(tv.rendered().size(), 2u);
  }
  return WorldDump{obs::world_json(net.metrics(), net.tracer()),
                   obs::chrome_trace_json(net.tracer())};
}

TEST(DeterminismTest, SameSeedWorldsEmitByteIdenticalTelemetry) {
  WorldDump a = run_bridged_world();
  WorldDump b = run_bridged_world();
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(DeterminismTest, BridgedWorldDecomposesIntoNamedPhases) {
  WorldDump dump = run_bridged_world();
  // The acceptance decomposition: discovery, translation, and wire time must
  // all appear as named span phases in the export.
  for (const char* phase : {"discovery", "translate", "wire", "native.bt", "native.upnp"}) {
    EXPECT_NE(dump.metrics.find(std::string("\"") + phase + "\""), std::string::npos)
        << "missing phase: " << phase;
    EXPECT_NE(dump.trace.find(std::string("\"name\":\"") + phase + "\""), std::string::npos)
        << "missing trace events for phase: " << phase;
  }
  EXPECT_NE(dump.trace.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
