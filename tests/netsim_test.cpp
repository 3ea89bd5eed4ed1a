// Tests for the network simulator: topology rules, datagrams, multicast,
// streams, timing/bandwidth accounting, loss, and the half-duplex hub.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "netsim/fault.hpp"
#include "netsim/network.hpp"
#include "netsim/stream.hpp"

namespace umiddle::net {

/// Reaches Network::send_frame, the path every datagram and stream frame
/// takes to the scheduler.
struct NetworkProbe {
  static void send_frame(Network& net, const std::string& host, SegmentId seg,
                         sim::Callback&& deliver) {
    net.send_frame(seg, net.resolve(host).value(), 0, std::move(deliver), /*lossless=*/true);
  }
};

namespace {

using sim::microseconds;
using sim::milliseconds;
using sim::Scheduler;
using sim::seconds;

/// A socket that ignores what it hears, for a sender.
UdpSocket bind_sender(Network& net, const Endpoint& at) {
  auto bound = net.udp_bind(at, [](UdpSocket, const Bytes&) {});
  EXPECT_TRUE(bound.ok()) << at.to_string();
  return bound.ok() ? bound.value() : UdpSocket{};
}

struct Fixture {
  Scheduler sched;
  Network net{sched, /*seed=*/1};
  SegmentId hub;

  Fixture() {
    SegmentSpec spec;
    spec.name = "hub";
    spec.bandwidth_bps = 10e6;
    spec.latency = microseconds(100);
    spec.shared_medium = true;
    hub = net.add_segment(spec);
    for (const char* h : {"n1", "n2", "n3"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, hub).ok());
    }
  }
};

TEST(NetworkTest, DuplicateHostRejected) {
  Scheduler sched;
  Network net(sched);
  EXPECT_TRUE(net.add_host("a").ok());
  auto r = net.add_host("a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::already_exists);
}

TEST(NetworkTest, AttachUnknownHostRejected) {
  Scheduler sched;
  Network net(sched);
  SegmentId seg = net.add_segment(SegmentSpec{});
  EXPECT_FALSE(net.attach("ghost", seg).ok());
}

TEST(NetworkTest, UdpDeliversWithLatency) {
  Fixture f;
  const UdpSocket from = bind_sender(f.net, {"n1", 1000});
  Bytes received;
  auto to = f.net.udp_bind({"n2", 2000}, [&](UdpSocket src, const Bytes& data) {
    EXPECT_EQ(src, from);
    EXPECT_EQ(f.net.host_name(src.host), "n1");
    received = data;
  });
  ASSERT_TRUE(to.ok());
  ASSERT_TRUE(f.net.udp_send(from, to.value(), make_payload(to_bytes("hello"))).ok());
  f.sched.run();
  EXPECT_EQ(to_string(received), "hello");
  // 5 + 58 + 20 = 83 bytes at 10 Mbps = 66.4 us + 100 us latency.
  EXPECT_GT(f.sched.now(), microseconds(160));
  EXPECT_LT(f.sched.now(), microseconds(180));
}

TEST(NetworkTest, UdpToUnboundPortIsSilentlyDropped) {
  Fixture f;
  const UdpSocket closed = bind_sender(f.net, {"n2", 9});
  f.net.udp_close(closed);
  const UdpSocket from = bind_sender(f.net, {"n1", 1});
  ASSERT_TRUE(f.net.udp_send(from, closed, make_payload(to_bytes("x"))).ok());
  f.sched.run();  // no crash, nothing delivered
}

TEST(NetworkTest, UdpAcrossUnconnectedHostsFails) {
  Scheduler sched;
  Network net(sched);
  SegmentId a = net.add_segment(SegmentSpec{});
  SegmentId b = net.add_segment(SegmentSpec{});
  ASSERT_TRUE(net.add_host("x").ok());
  ASSERT_TRUE(net.add_host("y").ok());
  ASSERT_TRUE(net.attach("x", a).ok());
  ASSERT_TRUE(net.attach("y", b).ok());
  auto r = net.udp_send(bind_sender(net, {"x", 1}), bind_sender(net, {"y", 2}),
                        make_payload(to_bytes("data")));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::disconnected);
}

TEST(NetworkTest, UdpBindConflictRejected) {
  Fixture f;
  auto bound = f.net.udp_bind({"n1", 5}, [](auto, auto&) {});
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(f.net.udp_bind({"n1", 5}, [](auto, auto&) {}).ok());
  f.net.udp_close(bound.value());
  EXPECT_TRUE(f.net.udp_bind({"n1", 5}, [](auto, auto&) {}).ok());
}

TEST(NetworkTest, MulticastReachesExactlyJoinedHosts) {
  Fixture f;
  int n2_count = 0, n3_count = 0, n1_count = 0;
  auto n1 = f.net.udp_bind({"n1", 1900}, [&](auto, auto&) { ++n1_count; });
  ASSERT_TRUE(n1.ok());
  const GroupId ssdp = f.net.group("ssdp");
  ASSERT_TRUE(f.net.udp_bind({"n2", 1900}, [&](auto, auto&) { ++n2_count; }).ok());
  ASSERT_TRUE(f.net.udp_bind({"n3", 1900}, [&](auto, auto&) { ++n3_count; }).ok());
  ASSERT_TRUE(f.net.join_group("n2", "ssdp").ok());
  ASSERT_TRUE(f.net.join_group("n3", "ssdp").ok());

  ASSERT_TRUE(f.net.udp_multicast(n1.value(), ssdp, 1900, make_payload(to_bytes("NOTIFY"))).ok());
  f.sched.run();
  EXPECT_EQ(n1_count, 0);  // sender did not join
  EXPECT_EQ(n2_count, 1);
  EXPECT_EQ(n3_count, 1);

  // Sender that joined hears its own transmissions (SSDP loopback).
  ASSERT_TRUE(f.net.join_group("n1", "ssdp").ok());
  ASSERT_TRUE(f.net.udp_multicast(n1.value(), ssdp, 1900, make_payload(to_bytes("NOTIFY"))).ok());
  f.sched.run();
  EXPECT_EQ(n1_count, 1);

  f.net.leave_group("n3", "ssdp");
  ASSERT_TRUE(f.net.udp_multicast(n1.value(), ssdp, 1900, make_payload(to_bytes("NOTIFY"))).ok());
  f.sched.run();
  EXPECT_EQ(n3_count, 2);  // unchanged
  EXPECT_EQ(n2_count, 3);
}

// Receivers of one multicast frame hear it in a fixed order, and that order
// is part of the trace digest. The first segment of the sender (lowest id)
// delivers in host-name order; a later segment delivers first the hosts that
// already appeared on the sender's earlier segments, then its own new hosts in
// name order. Neither is the order the hosts were added in.
TEST(NetworkTest, MulticastDeliveryOrderIsPinned) {
  Scheduler sched;
  Network net(sched);
  SegmentSpec fast;
  fast.latency = microseconds(100);
  SegmentSpec slow = fast;
  slow.latency = milliseconds(5);
  SegmentId seg_a = net.add_segment(fast);
  SegmentId seg_b = net.add_segment(slow);
  // Added out of name order: z s m c b.
  const std::vector<std::pair<const char*, std::vector<SegmentId>>> hosts = {
      {"z", {seg_a, seg_b}}, {"s", {seg_b, seg_a}}, {"m", {seg_a}},
      {"c", {seg_b}},        {"b", {seg_b}}};
  std::vector<std::pair<sim::TimePoint, std::string>> heard;
  UdpSocket sender;
  for (const auto& [name, segments] : hosts) {
    ASSERT_TRUE(net.add_host(name).ok());
    for (SegmentId seg : segments) ASSERT_TRUE(net.attach(name, seg).ok());
    ASSERT_TRUE(net.join_group(name, "g").ok());
    const std::string host = name;
    auto bound = net.udp_bind({host, 9}, [&heard, &sched, &sender, host](UdpSocket from, auto&) {
      EXPECT_EQ(from, sender);
      heard.emplace_back(sched.now(), host);
    });
    ASSERT_TRUE(bound.ok());
    if (host == "s") sender = bound.value();
  }

  for (int round = 0; round < 2; ++round) {  // the second send takes the same order
    heard.clear();
    ASSERT_TRUE(net.udp_multicast(sender, net.group("g"), 9, make_payload(to_bytes("hi"))).ok());
    sched.run();
    std::vector<std::string> on_a, on_b;
    for (const auto& [when, host] : heard) {
      (when - heard.front().first < milliseconds(1) ? on_a : on_b).push_back(host);
    }
    EXPECT_EQ(on_a, (std::vector<std::string>{"m", "s", "z"}));
    EXPECT_EQ(on_b, (std::vector<std::string>{"s", "z", "b", "c"}));
  }
}

// A multicast by handle gives the frames on every segment and the
// deliveries, in their order and at their times, that the by-name send it
// replaced gave, also after attach and join_group rebuild the routes. The
// expected log and segment counters were recorded from that by-name send.
TEST(NetworkTest, MulticastByHandleMatchesMulticastByName) {
  Scheduler sched;
  Network net{sched};
  const SegmentId hub = net.add_segment(SegmentSpec{});
  const SegmentId side = net.add_segment(SegmentSpec{});
  std::vector<std::string> heard;
  UdpSocket sender;
  for (const char* h : {"s", "c", "a", "b"}) ASSERT_TRUE(net.add_host(h).ok());
  for (const char* h : {"s", "b", "a"}) ASSERT_TRUE(net.attach(h, hub).ok());
  ASSERT_TRUE(net.attach("s", side).ok());
  for (const std::string h : {"a", "b", "c", "s"}) {
    auto bound = net.udp_bind({h, 9}, [&, h](UdpSocket from, const Bytes& p) {
      heard.push_back(std::to_string(sched.now().count()) + " " + h + " <- " +
                      net.host_name(from.host) + ":" + std::to_string(from.port) + " " +
                      to_string(p));
    });
    ASSERT_TRUE(bound.ok());
    if (h == "s") sender = bound.value();
  }
  const GroupId g = net.group("g");

  const std::vector<std::string> log = {
      "164000 b <- s:9 m0",  // b
      "328000 b <- s:9 m1",  // c joins, but shares no segment yet
      "492000 b <- s:9 m2", "492000 c <- s:9 m2",  // c attaches to side
      // "s" joins: it hears each frame on both of its segments
      "656000 b <- s:9 m3", "656000 s <- s:9 m3", "656000 s <- s:9 m3", "656000 c <- s:9 m3",
      // "a" attaches to side but never joined
      "820000 b <- s:9 m4", "820000 s <- s:9 m4", "820000 s <- s:9 m4", "820000 c <- s:9 m4"};
  const std::size_t heard_after[] = {1, 2, 4, 8, 12};
  // Cumulative {frames, wire bytes} of hub, then of side, after each change.
  const std::uint64_t counters[][4] = {
      {1, 80, 0, 0}, {2, 160, 0, 0}, {3, 240, 1, 80}, {4, 320, 2, 160}, {5, 400, 3, 240}};
  for (int change = 0; change < 5; ++change) {
    switch (change) {
      case 0: ASSERT_TRUE(net.join_group("b", "g").ok()); break;
      case 1: ASSERT_TRUE(net.join_group("c", "g").ok()); break;
      case 2: ASSERT_TRUE(net.attach("c", side).ok()); break;
      case 3: ASSERT_TRUE(net.join_group("s", "g").ok()); break;
      case 4: ASSERT_TRUE(net.attach("a", side).ok()); break;
    }
    const std::string body = "m" + std::to_string(change);
    ASSERT_TRUE(net.udp_multicast(sender, g, 9, make_payload(to_bytes(body))).ok());
    sched.run();
    EXPECT_EQ(heard, std::vector<std::string>(log.begin(), log.begin() + heard_after[change]))
        << "after change " << change;
    EXPECT_EQ(net.stats(hub).frames, counters[change][0]) << "after change " << change;
    EXPECT_EQ(net.stats(hub).wire_bytes, counters[change][1]) << "after change " << change;
    EXPECT_EQ(net.stats(side).frames, counters[change][2]) << "after change " << change;
    EXPECT_EQ(net.stats(side).wire_bytes, counters[change][3]) << "after change " << change;
  }
  // The handle is the socket: closing by it frees the port for a new bind.
  net.udp_close(sender);
  EXPECT_TRUE(net.udp_bind({"s", 9}, [](auto, auto&) {}).ok());
}

// Counts, per host, the deliveries of one multicast from "s" to group "g".
struct MembershipFixture {
  Scheduler sched;
  Network net{sched};
  SegmentId hub, side, far;
  std::map<std::string, int> heard;
  std::map<std::string, UdpSocket> sockets;  ///< each receiver's, from its bind
  UdpSocket sender;  ///< "s", which joins no group

  MembershipFixture() {
    hub = net.add_segment(SegmentSpec{});
    side = net.add_segment(SegmentSpec{});
    far = net.add_segment(SegmentSpec{});
    for (const char* h : {"s", "a", "b", "c"}) EXPECT_TRUE(net.add_host(h).ok());
    for (const char* h : {"s", "a", "b"}) EXPECT_TRUE(net.attach(h, hub).ok());
    EXPECT_TRUE(net.attach("s", side).ok());
    EXPECT_TRUE(net.attach("c", far).ok());  // shares no segment with "s" yet
    for (const char* h : {"a", "b", "c"}) bind(h);
    sender = bind_sender(net, {"s", 9});
  }
  void bind(const std::string& host) {
    auto bound = net.udp_bind({host, 9}, [this, host](auto, auto&) { ++heard[host]; });
    EXPECT_TRUE(bound.ok());
    if (bound.ok()) sockets[host] = bound.value();
  }
  std::map<std::string, int> multicast() {
    heard.clear();
    EXPECT_TRUE(net.udp_multicast(sender, net.group("g"), 9, make_payload(to_bytes("x"))).ok());
    sched.run();
    return heard;
  }
};

using Heard = std::map<std::string, int>;

TEST(NetworkTest, MulticastReceiversFollowMembership) {
  MembershipFixture f;
  ASSERT_TRUE(f.net.join_group("a", "g").ok());
  ASSERT_TRUE(f.net.join_group("c", "g").ok());
  EXPECT_EQ(f.multicast(), (Heard{{"a", 1}}));

  ASSERT_TRUE(f.net.join_group("b", "g").ok());
  EXPECT_EQ(f.multicast(), (Heard{{"a", 1}, {"b", 1}}));

  f.net.leave_group("a", "g");
  EXPECT_EQ(f.multicast(), (Heard{{"b", 1}}));

  ASSERT_TRUE(f.net.attach("c", f.side).ok());
  EXPECT_EQ(f.multicast(), (Heard{{"b", 1}, {"c", 1}}));

  // A crash forgets the memberships: re-binding alone does not rejoin.
  f.net.faults().crash_host("b");
  f.bind("b");
  EXPECT_EQ(f.multicast(), (Heard{{"c", 1}}));
  ASSERT_TRUE(f.net.join_group("b", "g").ok());
  EXPECT_EQ(f.multicast(), (Heard{{"b", 1}, {"c", 1}}));
}

TEST(NetworkTest, MulticastInFlightKeepsItsReceiversButLooksUpSockets) {
  MembershipFixture f;
  ASSERT_TRUE(f.net.join_group("a", "g").ok());
  ASSERT_TRUE(f.net.join_group("b", "g").ok());

  // Membership changes after the send do not touch a frame already in flight.
  ASSERT_TRUE(f.net.udp_multicast(f.sender, f.net.group("g"), 9, make_payload(to_bytes("x"))).ok());
  f.net.leave_group("b", "g");
  ASSERT_TRUE(f.net.join_group("c", "g").ok());
  ASSERT_TRUE(f.net.attach("c", f.hub).ok());
  f.sched.run();
  EXPECT_EQ(f.heard, (Heard{{"a", 1}, {"b", 1}}));

  // Sockets are looked up at delivery: a handler that closes a later
  // receiver's socket suppresses that receiver's copy of the same frame.
  ASSERT_TRUE(f.net.join_group("b", "g").ok());
  f.net.udp_close(f.sockets["a"]);
  ASSERT_TRUE(f.net.udp_bind({"a", 9}, [&f](auto, auto&) {
    ++f.heard["a"];
    f.net.udp_close(f.sockets["b"]);
  }).ok());
  EXPECT_EQ(f.multicast(), (Heard{{"a", 1}, {"c", 1}}));
}

TEST(NetworkTest, StreamConnectHandshakeAndData) {
  Fixture f;
  StreamPtr server;
  ASSERT_TRUE(f.net.listen({"n2", 80}, [&](StreamPtr s) { server = std::move(s); }).ok());

  auto client_r = f.net.connect("n1", {"n2", 80});
  ASSERT_TRUE(client_r.ok());
  StreamPtr client = client_r.value();
  EXPECT_FALSE(client->connected());

  bool connected = false;
  client->on_connected([&] { connected = true; });
  f.sched.run();
  ASSERT_TRUE(connected);
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->connected());
  // Handshake cost 3x one-way latency.
  EXPECT_EQ(f.sched.now(), microseconds(300));

  std::string got;
  server->on_data([&](std::span<const std::uint8_t> d) { got += to_string(d); });
  ASSERT_TRUE(client->send("GET / HTTP/1.1\r\n\r\n").ok());
  f.sched.run();
  EXPECT_EQ(got, "GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(client->bytes_sent(), got.size());
  EXPECT_EQ(server->bytes_received(), got.size());
}

TEST(NetworkTest, StreamRefusedWithoutListener) {
  Fixture f;
  auto r = f.net.connect("n1", {"n2", 81});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::refused);
}

TEST(NetworkTest, StreamLargeTransferIsSegmentedAndOrdered) {
  Fixture f;
  StreamPtr server;
  ASSERT_TRUE(f.net.listen({"n2", 80}, [&](StreamPtr s) {
    server = std::move(s);
  }).ok());
  auto client = f.net.connect("n1", {"n2", 80}).value();
  f.sched.run();  // complete handshake
  ASSERT_NE(server, nullptr);

  Bytes big(100 * 1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
  Bytes got;
  std::size_t chunks = 0;
  server->on_data([&](std::span<const std::uint8_t> d) {
    got.insert(got.end(), d.begin(), d.end());
    ++chunks;
  });
  ASSERT_TRUE(client->send(big).ok());
  f.sched.run();
  EXPECT_EQ(got, big);                    // lossless, in order
  EXPECT_GE(chunks, big.size() / 1460);   // actually segmented

  // Serialization-bound timing: ~100 KB over 10 Mbps ≈ 80 ms + overheads.
  double secs = sim::to_seconds(f.sched.now());
  double goodput_mbps = static_cast<double>(big.size()) * 8.0 / secs / 1e6;
  EXPECT_GT(goodput_mbps, 7.0);
  EXPECT_LT(goodput_mbps, 10.0);
}

TEST(NetworkTest, StreamBidirectional) {
  Fixture f;
  StreamPtr server;
  ASSERT_TRUE(f.net.listen({"n2", 80}, [&](StreamPtr s) {
    server = std::move(s);
    server->on_data([&](std::span<const std::uint8_t> d) {
      ASSERT_TRUE(server->send(Bytes(d.begin(), d.end())).ok());  // echo
    });
  }).ok());
  auto client = f.net.connect("n1", {"n2", 80}).value();
  std::string echoed;
  client->on_data([&](std::span<const std::uint8_t> d) { echoed += to_string(d); });
  client->on_connected([&] { ASSERT_TRUE(client->send("ping").ok()); });
  f.sched.run();
  EXPECT_EQ(echoed, "ping");
}

TEST(NetworkTest, StreamCloseNotifiesPeerAndFailsFurtherSends) {
  Fixture f;
  StreamPtr server;
  ASSERT_TRUE(f.net.listen({"n2", 80}, [&](StreamPtr s) { server = std::move(s); }).ok());
  auto client = f.net.connect("n1", {"n2", 80}).value();
  f.sched.run();
  ASSERT_NE(server, nullptr);

  bool server_saw_close = false;
  server->on_close([&] { server_saw_close = true; });
  std::string got;
  server->on_data([&](std::span<const std::uint8_t> d) { got += to_string(d); });

  ASSERT_TRUE(client->send("last words").ok());
  client->close();
  EXPECT_FALSE(client->send("after close").ok());
  f.sched.run();
  EXPECT_EQ(got, "last words");  // flushed before close
  EXPECT_TRUE(server_saw_close);
  EXPECT_TRUE(client->closed());
}

TEST(NetworkTest, HalfDuplexSharedMediumSerializesTransmissions) {
  // Two senders on a hub must take twice as long as one sender.
  Scheduler sched;
  Network net(sched);
  SegmentSpec spec;
  spec.bandwidth_bps = 10e6;
  spec.latency = microseconds(10);
  spec.shared_medium = true;
  SegmentId hub = net.add_segment(spec);
  for (const char* h : {"a", "b", "c"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, hub).ok());
  }
  int received = 0;
  auto c = net.udp_bind({"c", 9}, [&](auto, auto&) { ++received; });
  ASSERT_TRUE(c.ok());

  const std::size_t payload = 10000;  // 10 KB each (split across frames? no: udp single frame)
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(
        net.udp_send(bind_sender(net, {h, 1}), c.value(), make_payload(Bytes(payload))).ok());
  }
  sched.run();
  EXPECT_EQ(received, 2);
  // Each ~10 KB frame takes ~8 ms at 10 Mbps; serialized on the medium → ≥16 ms.
  EXPECT_GT(sched.now(), milliseconds(16));
  EXPECT_EQ(net.stats(hub).frames, 2u);
  EXPECT_EQ(net.stats(hub).payload_bytes, 2 * payload);
}

TEST(NetworkTest, FullDuplexAllowsParallelSenders) {
  Scheduler sched;
  Network net(sched);
  SegmentSpec spec;
  spec.bandwidth_bps = 10e6;
  spec.latency = microseconds(10);
  spec.shared_medium = false;  // switched
  SegmentId sw = net.add_segment(spec);
  for (const char* h : {"a", "b", "c"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, sw).ok());
  }
  int received = 0;
  auto c = net.udp_bind({"c", 9}, [&](auto, auto&) { ++received; });
  ASSERT_TRUE(c.ok());
  for (const char* h : {"a", "b"}) {
    ASSERT_TRUE(net.udp_send(bind_sender(net, {h, 1}), c.value(), make_payload(Bytes(10000))).ok());
  }
  sched.run();
  EXPECT_EQ(received, 2);
  EXPECT_LT(sched.now(), milliseconds(10));  // in parallel, ~8 ms each
}

TEST(NetworkTest, LossDropsDatagramsButStatsCount) {
  Scheduler sched;
  Network net(sched, /*seed=*/99);
  SegmentSpec spec;
  spec.loss = 0.5;
  spec.latency = microseconds(10);
  SegmentId radio = net.add_segment(spec);
  ASSERT_TRUE(net.add_host("tx").ok());
  ASSERT_TRUE(net.add_host("rx").ok());
  ASSERT_TRUE(net.attach("tx", radio).ok());
  ASSERT_TRUE(net.attach("rx", radio).ok());
  int received = 0;
  auto rx = net.udp_bind({"rx", 7}, [&](auto, auto&) { ++received; });
  ASSERT_TRUE(rx.ok());
  const UdpSocket tx = bind_sender(net, {"tx", 7});
  const int sent = 400;
  for (int i = 0; i < sent; ++i) {
    ASSERT_TRUE(net.udp_send(tx, rx.value(), make_payload(Bytes(10))).ok());
    sched.run();
  }
  EXPECT_GT(received, sent / 4);
  EXPECT_LT(received, sent * 3 / 4);
  EXPECT_EQ(net.stats(radio).dropped + static_cast<std::uint64_t>(received),
            static_cast<std::uint64_t>(sent));
}

TEST(NetworkTest, StreamsAreLosslessEvenOnLossySegments) {
  Scheduler sched;
  Network net(sched, 5);
  SegmentSpec spec;
  spec.loss = 0.3;
  SegmentId radio = net.add_segment(spec);
  ASSERT_TRUE(net.add_host("a").ok());
  ASSERT_TRUE(net.add_host("b").ok());
  ASSERT_TRUE(net.attach("a", radio).ok());
  ASSERT_TRUE(net.attach("b", radio).ok());
  StreamPtr server;
  ASSERT_TRUE(net.listen({"b", 80}, [&](StreamPtr s) { server = std::move(s); }).ok());
  auto client = net.connect("a", {"b", 80}).value();
  sched.run();
  ASSERT_NE(server, nullptr);
  Bytes got;
  server->on_data([&](std::span<const std::uint8_t> d) { got.insert(got.end(), d.begin(), d.end()); });
  ASSERT_TRUE(client->send(Bytes(20000, 0x5A)).ok());
  sched.run();
  EXPECT_EQ(got.size(), 20000u);
}

TEST(NetworkTest, EphemeralPortsAreDistinct) {
  Fixture f;
  ASSERT_TRUE(f.net.listen({"n2", 80}, [](StreamPtr) {}).ok());
  auto c1 = f.net.connect("n1", {"n2", 80}).value();
  auto c2 = f.net.connect("n1", {"n2", 80}).value();
  EXPECT_NE(c1->local().port, c2->local().port);
}

// 16384 ephemeral ports, 49152..65535, allocated round-robin per world.
constexpr int kEphemeralPorts = 16384;

TEST(NetworkTest, EphemeralPortsSkipLiveStreamsAfterWrap) {
  Fixture f;
  ASSERT_TRUE(f.net.listen({"n2", 80}, [](StreamPtr) {}).ok());
  auto long_lived = f.net.connect("n1", {"n2", 80}).value();
  f.sched.run();
  ASSERT_TRUE(long_lived->connected());
  for (int i = 1; i < kEphemeralPorts; ++i) {  // every other port, each released again
    auto c = f.net.connect("n1", {"n2", 80}).value();
    c->close();
    f.sched.run();
  }
  // The allocator has wrapped: the next candidate is the long-lived link's port.
  auto next = f.net.connect("n1", {"n2", 80});
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next.value()->local().port, long_lived->local().port);
  EXPECT_GE(next.value()->local().port, 49152);
}

TEST(NetworkTest, ConnectFailsWhenNoEphemeralPortIsFree) {
  Fixture f;
  ASSERT_TRUE(f.net.listen({"n2", 80}, [](StreamPtr) {}).ok());
  std::vector<StreamPtr> held;
  for (int i = 0; i < kEphemeralPorts; ++i) {
    auto c = f.net.connect("n1", {"n2", 80});
    ASSERT_TRUE(c.ok()) << i;
    EXPECT_NE(c.value()->local().port, 0);
    held.push_back(c.value());
  }
  auto none = f.net.connect("n1", {"n2", 80});
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, Errc::buffer_overflow);
  // Another host's ports are its own.
  EXPECT_TRUE(f.net.connect("n3", {"n2", 80}).ok());
}

/// A capture that counts its move constructions.
struct MoveCounter {
  explicit MoveCounter(int* moves) : moves(moves) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
  MoveCounter& operator=(MoveCounter&&) = delete;
  int* moves;
};

// A capture is built in its event's slot and runs there: scheduling costs the
// one move that building any sim::Callback from the same lambda costs, and
// send_frame, which takes an already built Callback, adds one relocation.
TEST(CallbackTest, CaptureIsMovedOnlyIntoItsSlotAndOnceMoreThroughSendFrame) {
  Fixture f;
  int fired = 0;
  int built = 0;
  { sim::Callback cb([&fired, c = MoveCounter(&built)] { ++fired; }); }
  ASSERT_EQ(built, 1);  // from the lambda argument into the buffer

  int at = 0, after = 0, posted = 0, framed = 0;
  f.sched.schedule_at(milliseconds(1), [&fired, c = MoveCounter(&at)] { ++fired; });
  f.sched.schedule_after(milliseconds(1), [&fired, c = MoveCounter(&after)] { ++fired; });
  f.sched.post([&fired, c = MoveCounter(&posted)] { ++fired; });
  NetworkProbe::send_frame(f.net, "n1", f.hub, [&fired, c = MoveCounter(&framed)] { ++fired; });
  f.sched.run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(at, built);
  EXPECT_EQ(after, built);
  EXPECT_EQ(posted, built);
  EXPECT_LE(framed, built + 1);
}

}  // namespace
}  // namespace umiddle::net
