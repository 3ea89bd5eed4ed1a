// Property/stress tests: scheduler ordering under random loads, netsim
// conservation laws, directory consistency across many nodes, and transport
// fan-out at scale.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rand.hpp"
#include "core/umiddle.hpp"

namespace umiddle {
namespace {

using sim::milliseconds;
using sim::seconds;

// Property: N events scheduled at random times fire in non-decreasing time
// order, and same-time events fire in insertion order.
class SchedulerStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerStressTest, RandomLoadsFireInOrder) {
  Rng rng(GetParam());
  sim::Scheduler sched;
  struct Fired {
    sim::TimePoint at;
    std::uint64_t seq;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<sim::Duration, std::uint64_t>> scheduled;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    sim::Duration when = milliseconds(static_cast<std::int64_t>(rng.below(50)));
    scheduled.emplace_back(when, i);
    sched.schedule_after(when, [&fired, &sched, i]() {
      fired.push_back({sched.now(), i});
    });
  }
  sched.run();
  ASSERT_EQ(fired.size(), 2000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].at, fired[i].at);
    if (fired[i - 1].at == fired[i].at) {
      // insertion order among equals
      ASSERT_LT(fired[i - 1].seq, fired[i].seq);
    }
  }
  // Every event fired at exactly its scheduled time.
  std::sort(fired.begin(), fired.end(),
            [](const Fired& a, const Fired& b) { return a.seq < b.seq; });
  for (std::uint64_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(fired[i].at, sim::TimePoint(scheduled[i].first));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStressTest, ::testing::Values(1, 2, 3, 4, 5));

// Property: bytes are conserved through a stream — every byte sent is
// received exactly once, in order, for random message sizes.
class StreamConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamConservationTest, RandomWritesArriveIntact) {
  Rng rng(GetParam());
  sim::Scheduler sched;
  net::Network net(sched, GetParam());
  net::SegmentSpec spec;
  spec.mtu_payload = 100 + rng.below(1400);
  net::SegmentId lan = net.add_segment(spec);
  ASSERT_TRUE(net.add_host("a").ok());
  ASSERT_TRUE(net.add_host("b").ok());
  ASSERT_TRUE(net.attach("a", lan).ok());
  ASSERT_TRUE(net.attach("b", lan).ok());

  net::StreamPtr server;
  ASSERT_TRUE(net.listen({"b", 1}, [&](net::StreamPtr s) { server = std::move(s); }).ok());
  auto client = net.connect("a", {"b", 1}).value();
  sched.run();
  ASSERT_NE(server, nullptr);

  Bytes expected;
  Bytes received;
  server->on_data([&](std::span<const std::uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  for (int i = 0; i < 60; ++i) {
    Bytes chunk(1 + rng.below(5000));
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next());
    expected.insert(expected.end(), chunk.begin(), chunk.end());
    ASSERT_TRUE(client->send(std::move(chunk)).ok());
    if (rng.chance(0.3)) sched.run_for(milliseconds(static_cast<std::int64_t>(rng.below(20))));
  }
  sched.run();
  EXPECT_EQ(received, expected);
  EXPECT_EQ(client->bytes_sent(), expected.size());
  EXPECT_EQ(server->bytes_received(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamConservationTest, ::testing::Values(11, 22, 33, 44));

// Directory consistency across five runtime nodes with churn.
TEST(DirectoryScaleTest, FiveNodesConvergeUnderChurn) {
  sim::Scheduler sched;
  net::Network net(sched, 9);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  std::vector<std::unique_ptr<core::Runtime>> nodes;
  for (int i = 0; i < 5; ++i) {
    std::string host = "n";
    host += std::to_string(i);
    ASSERT_TRUE(net.add_host(host).ok());
    ASSERT_TRUE(net.attach(host, lan).ok());
    nodes.push_back(std::make_unique<core::Runtime>(sched, net, host));
    ASSERT_TRUE(nodes.back()->start().ok());
  }
  sched.run_for(seconds(1));

  // Each node maps 4 devices; all 20 must converge everywhere.
  Rng rng(5);
  std::vector<TranslatorId> ids;
  for (auto& node : nodes) {
    for (int d = 0; d < 4; ++d) {
      auto dev = std::make_unique<core::LambdaDevice>(
          "dev-" + rng.ident(6),
          core::make_source_shape("out", MimeType::of("text/plain")));
      ids.push_back(node->map(std::move(dev)).take());
    }
  }
  sched.run_for(seconds(2));
  for (auto& node : nodes) {
    EXPECT_EQ(node->directory().known_translators(), 20u);
  }

  // Unmap half (every other id) — everyone converges to 10.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    bool removed = false;
    for (auto& node : nodes) {
      if (node->unmap(ids[i]).ok()) {
        removed = true;
        break;
      }
    }
    ASSERT_TRUE(removed);
  }
  sched.run_for(seconds(2));
  for (auto& node : nodes) {
    EXPECT_EQ(node->directory().known_translators(), 10u);
  }
}

// Transport fan-out: one source query-bound to many sinks, all delivered.
TEST(TransportScaleTest, WideFanOutDeliversToAll) {
  sim::Scheduler sched;
  net::Network net(sched, 3);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  ASSERT_TRUE(net.add_host("node").ok());
  ASSERT_TRUE(net.attach("node", lan).ok());
  core::Runtime runtime(sched, net, "node");
  ASSERT_TRUE(runtime.start().ok());

  auto src = std::make_unique<core::LambdaDevice>(
      "src", core::make_source_shape("out", MimeType::of("text/plain")));
  core::LambdaDevice* src_raw = src.get();
  auto src_id = runtime.map(std::move(src)).take();

  constexpr int kSinks = 50;
  std::vector<core::CollectorDevice*> sinks;
  for (int i = 0; i < kSinks; ++i) {
    auto sink = std::make_unique<core::CollectorDevice>(
        "sink-" + std::to_string(i),
        core::make_sink_shape("in", MimeType::of("text/plain")));
    sinks.push_back(sink.get());
    (void)runtime.map(std::move(sink)).take();
  }
  auto path = runtime.transport().connect(
      core::PortRef{src_id, "out"}, core::Query().digital_input(MimeType::of("text/plain")));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(runtime.transport().bound_destinations(path.value()).size(),
            static_cast<std::size_t>(kSinks));

  for (int m = 0; m < 10; ++m) {
    std::string body = "m";
    body += std::to_string(m);
    ASSERT_TRUE(src_raw->emit("out", core::Message::text(MimeType::of("text/plain"), body)).ok());
  }
  // run_for, not run(): a live runtime re-announces periodically forever.
  sched.run_for(seconds(5));
  for (core::CollectorDevice* sink : sinks) {
    ASSERT_EQ(sink->count(), 10u);
    EXPECT_EQ(sink->received().front().msg.body_text(), "m0");
    EXPECT_EQ(sink->received().back().msg.body_text(), "m9");
  }
  const core::PathStats* stats = runtime.transport().stats(path.value());
  EXPECT_EQ(stats->messages_forwarded, static_cast<std::uint64_t>(10 * kSinks));
}

// Physical invariant: a segment's cumulative busy time can never exceed the
// elapsed virtual time (the medium cannot be more than 100% utilized).
TEST(NetsimInvariantTest, SharedMediumNeverExceedsCapacity) {
  sim::Scheduler sched;
  net::Network net(sched, 17);
  net::SegmentSpec spec;
  spec.bandwidth_bps = 10e6;
  spec.shared_medium = true;
  spec.latency = sim::microseconds(50);
  net::SegmentId hub = net.add_segment(spec);
  for (const char* h : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, hub).ok());
  }
  // Three senders saturate the hub toward one receiver.
  std::uint64_t received = 0;
  auto d = net.udp_bind({"d", 7}, [&](auto, const Bytes& p) { received += p.size(); });
  ASSERT_TRUE(d.ok());
  std::vector<net::UdpSocket> senders;
  for (const char* h : {"a", "b", "c"}) {
    auto bound = net.udp_bind({h, 7}, [](auto, auto&) {});
    ASSERT_TRUE(bound.ok());
    senders.push_back(bound.value());
  }
  Rng rng(3);
  for (int burst = 0; burst < 50; ++burst) {
    for (net::UdpSocket from : senders) {
      ASSERT_TRUE(net.udp_send(from, d.value(), make_payload(Bytes(1 + rng.below(1400)))).ok());
    }
    sched.run_for(sim::milliseconds(static_cast<std::int64_t>(rng.below(3))));
  }
  sched.run();
  const net::SegmentStats& stats = net.stats(hub);
  EXPECT_GT(received, 0u);
  EXPECT_LE(stats.busy_time, sched.now());
  // Wire accounting: wire bytes ≥ payload bytes (headers + preambles).
  EXPECT_GE(stats.wire_bytes, stats.payload_bytes);
  EXPECT_EQ(stats.frames, 150u);
}

// Failure injection: malformed datagrams on the directory port must not
// disturb a healthy semantic space.
TEST(RobustnessTest, DirectoryIgnoresGarbageAdvertisements) {
  sim::Scheduler sched;
  net::Network net(sched, 4);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"good", "evil"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime runtime(sched, net, "good");
  ASSERT_TRUE(runtime.start().ok());
  auto id = runtime.map(std::make_unique<core::LambdaDevice>(
                            "dev", core::make_source_shape("out", MimeType::of("a/b"))))
                .take();
  sched.run_for(seconds(1));

  ASSERT_TRUE(net.join_group("evil", runtime.config().group).ok());
  auto evil = net.udp_bind({"evil", runtime.config().directory_port}, [](auto, auto&) {});
  ASSERT_TRUE(evil.ok());
  const net::GroupId group = net.group(runtime.config().group);
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    Bytes garbage(rng.below(200));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(net.udp_multicast(evil.value(), group, runtime.config().directory_port,
                                  make_payload(std::move(garbage)))
                    .ok());
  }
  // And some well-formed-XML-but-wrong documents.
  for (const char* doc : {"<umiddle-adv type=\"announce\" node=\"999\"/>",
                          "<umiddle-adv type=\"bye\" node=\"999\" translator-id=\"zzz\"/>",
                          "<not-an-advert/>",
                          "<umiddle-adv type=\"announce\" node=\"999\" host=\"evil\" "
                          "umtp-port=\"7701\"><translator id=\"0\" node=\"0\"/></umiddle-adv>",
                          "<umiddle-adv type=\"bye\" node=\"998\" host=\"evil\" "
                          "umtp-port=\"70001\" translator-id=\"1\"/>"}) {
    ASSERT_TRUE(net.udp_multicast(evil.value(), group, runtime.config().directory_port,
                                  make_payload(to_bytes(doc)))
                    .ok());
  }
  sched.run_for(seconds(1));
  // The good translator is still there; no phantom entries appeared.
  EXPECT_NE(runtime.directory().profile(id), nullptr);
  EXPECT_EQ(runtime.directory().known_translators(), 1u);
  // An out-of-range UMTP port is rejected, not truncated to 70001 % 65536.
  EXPECT_EQ(runtime.directory().node_info(NodeId(998)), nullptr);
}

// Failure injection: malformed UMTP bytes on the transport port are dropped.
TEST(RobustnessTest, TransportSurvivesGarbageFrames) {
  sim::Scheduler sched;
  net::Network net(sched, 4);
  net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"good", "evil"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime runtime(sched, net, "good");
  ASSERT_TRUE(runtime.start().ok());
  sched.run_for(seconds(1));

  auto stream = net.connect("evil", {"good", runtime.config().umtp_port});
  ASSERT_TRUE(stream.ok());
  net::StreamPtr s = stream.value();
  s->on_connected([s]() {
    Bytes garbage = {0x00, 0x00, 0x00, 0x03, 0xFF, 0xEE, 0xDD};  // unknown frame type
    (void)s->send(garbage);
  });
  sched.run_for(seconds(1));
  // Runtime still healthy: can map and advertise.
  auto id = runtime.map(std::make_unique<core::LambdaDevice>(
                            "dev", core::make_source_shape("out", MimeType::of("a/b"))))
                .take();
  sched.run_for(seconds(1));
  EXPECT_NE(runtime.directory().profile(id), nullptr);
}

}  // namespace
}  // namespace umiddle
