// Tests for the RMI, MediaBroker, and Motes substrates and their mappers.
#include <gtest/gtest.h>

#include <optional>

#include "core/umiddle.hpp"
#include "mediabroker/mapper.hpp"
#include "motes/mapper.hpp"
#include "rmi/mapper.hpp"

namespace umiddle {
namespace {

using sim::milliseconds;
using sim::seconds;

struct Lan {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId lan;

  Lan() {
    net::SegmentSpec spec;
    spec.latency = sim::microseconds(100);
    lan = net.add_segment(spec);
  }
  void add_host(const std::string& name) {
    ASSERT_TRUE(net.add_host(name).ok());
    ASSERT_TRUE(net.attach(name, lan).ok());
  }
};

// --- RMI protocol ------------------------------------------------------------------

TEST(RmiProtocolTest, CallAndReturnRoundTrip) {
  rmi::Call call{"echo", "deliver", Bytes(100, 0x2A)};
  std::vector<rmi::Call> calls;
  std::vector<rmi::Return> returns;
  rmi::CallReader calls_reader;
  ASSERT_TRUE(calls_reader.feed(rmi::encode_call(call), calls).ok());
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].object, "echo");
  EXPECT_EQ(calls[0].method, "deliver");
  EXPECT_EQ(calls[0].args.size(), 100u);

  rmi::Return ret{false, to_bytes("ok")};
  rmi::ReturnReader returns_reader;
  ASSERT_TRUE(returns_reader.feed(rmi::encode_return(ret), returns).ok());
  ASSERT_EQ(returns.size(), 1u);
  EXPECT_FALSE(returns[0].exception);
  EXPECT_EQ(umiddle::to_string(returns[0].value), "ok");
}

TEST(RmiProtocolTest, SerializationOverheadIsOnTheWire) {
  rmi::Call call{"o", "m", Bytes(10)};
  // Wire size must include the Java-serialization descriptor filler.
  EXPECT_GT(rmi::encode_call(call).size(), rmi::kSerializationOverhead + 10);
}

TEST(RmiProtocolTest, DecoderRejectsBadMagic) {
  std::vector<rmi::Call> calls;
  rmi::CallReader d;
  EXPECT_FALSE(d.feed(to_bytes("XXXX\x50"), calls).ok());
}

TEST(RmiProtocolTest, ServerDispatchAndException) {
  Lan f;
  f.add_host("server");
  f.add_host("client");
  rmi::RmiObjectServer server(f.net, "server", 2000);
  server.export_method("calc", "double",
                       [](const Bytes& args, const std::string&) -> Result<Bytes> {
                         Bytes out = args;
                         out.insert(out.end(), args.begin(), args.end());
                         return out;
                       });
  ASSERT_TRUE(server.start().ok());

  auto stream = f.net.connect("client", {"server", 2000});
  ASSERT_TRUE(stream.ok());
  auto conn = std::make_shared<rmi::RmiConnection>(stream.value());
  int done = 0;
  // One call at a time: the second waits for the first's return.
  conn->call(rmi::Call{"calc", "double", Bytes{1, 2}}, [&](Result<rmi::Return> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().exception);
    EXPECT_EQ(r.value().value, (Bytes{1, 2, 1, 2}));
    ++done;
    conn->call(rmi::Call{"calc", "missing", {}}, [&](Result<rmi::Return> r2) {
      ASSERT_TRUE(r2.ok());
      EXPECT_TRUE(r2.value().exception);
      ++done;
    });
  });
  f.sched.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(server.calls_served(), 2u);
}

TEST(RmiProtocolTest, ASecondOutstandingCallIsRefused) {
  Lan f;
  f.add_host("server");
  f.add_host("client");
  rmi::RmiObjectServer server(f.net, "server", 2000);
  server.export_method("o", "m",
                       [](const Bytes&, const std::string&) -> Result<Bytes> { return Bytes{}; });
  ASSERT_TRUE(server.start().ok());
  auto conn = std::make_shared<rmi::RmiConnection>(f.net.connect("client", {"server", 2000}).value());
  std::vector<std::optional<Errc>> results;
  for (int i = 0; i < 2; ++i) {
    conn->call(rmi::Call{"o", "m", {}}, [&](Result<rmi::Return> r) {
      results.push_back(r.ok() ? std::nullopt : std::optional<Errc>(r.error().code));
    });
  }
  f.sched.run();
  EXPECT_EQ(results, (std::vector<std::optional<Errc>>{Errc::refused, std::nullopt}));
  EXPECT_EQ(server.calls_served(), 1u);
}

TEST(RmiRegistryTest, BindLookupListUnbind) {
  Lan f;
  f.add_host("reg");
  f.add_host("svc");
  rmi::RmiRegistry registry(f.net, "reg");
  ASSERT_TRUE(registry.start().ok());
  rmi::RegistryClient client(f.net, "svc", registry.endpoint());

  int steps = 0;
  client.bind(rmi::Binding{"echo1", "rmi:echo", "svc", 2001}, [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    ++steps;
  });
  f.sched.run();
  EXPECT_EQ(registry.size(), 1u);

  client.lookup("echo1", [&](Result<rmi::Binding> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().host, "svc");
    EXPECT_EQ(r.value().port, 2001);
    ++steps;
  });
  client.lookup("ghost", [&](Result<rmi::Binding> r) {
    EXPECT_FALSE(r.ok());
    ++steps;
  });
  client.list([&](Result<std::vector<rmi::Binding>> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().size(), 1u);
    ++steps;
  });
  f.sched.run();
  client.unbind("echo1", [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    ++steps;
  });
  f.sched.run();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(steps, 5);
}

// A name belongs to the host that bound it: another host's bind over it
// raises AlreadyBoundException and its unbind is refused, so the binding
// stays. The binding host rebinds and unbinds it.
TEST(RmiRegistryTest, OnlyTheBindingHostRebindsOrUnbindsAName) {
  Lan f;
  f.add_host("reg");
  f.add_host("svc");
  f.add_host("other");
  rmi::RmiRegistry registry(f.net, "reg");
  ASSERT_TRUE(registry.start().ok());
  rmi::RegistryClient owner(f.net, "svc", registry.endpoint());
  rmi::RegistryClient other(f.net, "other", registry.endpoint());
  std::vector<bool> done;
  auto record = [&](Result<void> r) { done.push_back(r.ok()); };
  owner.bind(rmi::Binding{"echo1", "rmi:echo", "svc", 2001}, record);
  f.sched.run();
  other.bind(rmi::Binding{"echo1", "rmi:echo", "other", 2002}, record);
  f.sched.run();
  other.unbind("echo1", record);
  f.sched.run();
  EXPECT_EQ(done, (std::vector<bool>{true, false, false}));
  EXPECT_EQ(registry.size(), 1u);
  std::optional<rmi::Binding> bound;
  other.lookup("echo1", [&](Result<rmi::Binding> r) {
    if (r.ok()) bound = r.value();
  });
  f.sched.run();
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(*bound, (rmi::Binding{"echo1", "rmi:echo", "svc", 2001}));

  owner.bind(rmi::Binding{"echo1", "rmi:echo", "svc", 2003}, record);
  f.sched.run();
  owner.unbind("echo1", record);
  f.sched.run();
  EXPECT_EQ(done, (std::vector<bool>{true, false, false, true, true}));
  EXPECT_EQ(registry.size(), 0u);
}

struct RmiWorld : Lan {
  core::UsdlLibrary library;
  std::unique_ptr<rmi::RmiRegistry> registry;
  std::unique_ptr<rmi::RmiEchoService> service;
  std::unique_ptr<core::Runtime> runtime;

  RmiWorld() {
    add_host("reg");
    add_host("svc");
    add_host("umnode");
    rmi::register_rmi_usdl(library);
    registry = std::make_unique<rmi::RmiRegistry>(net, "reg");
    EXPECT_TRUE(registry->start().ok());
    service = std::make_unique<rmi::RmiEchoService>(net, "svc", 2001, "echo1",
                                                    registry->endpoint());
    EXPECT_TRUE(service->start().ok());
    runtime = std::make_unique<core::Runtime>(sched, net, "umnode");
    runtime->add_mapper(std::make_unique<rmi::RmiMapper>(registry->endpoint(), library));
  }
};

TEST(RmiMapperTest, DiscoversServiceViaRegistryPolling) {
  RmiWorld w;
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));
  auto profiles = w.runtime->directory().lookup(core::Query().platform("rmi"));
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].device_type, "rmi:echo");
  EXPECT_NE(profiles[0].shape.find("data-in"), nullptr);
  EXPECT_NE(profiles[0].shape.find("data-out"), nullptr);
}

TEST(RmiMapperTest, DeliverBecomesSynchronousCall) {
  RmiWorld w;
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));
  auto profiles = w.runtime->directory().lookup(core::Query().platform("rmi"));
  ASSERT_EQ(profiles.size(), 1u);
  core::Translator* t = w.runtime->translator(profiles[0].id);
  ASSERT_NE(t, nullptr);

  core::Message msg;
  msg.type = MimeType::of("application/octet-stream");
  msg.payload = Bytes(1400, 0x5A);
  ASSERT_TRUE(t->deliver("data-in", msg).ok());
  EXPECT_FALSE(t->ready("data-in"));  // synchronous call outstanding
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.service->received(), 1u);
  EXPECT_EQ(w.service->received_bytes(), 1400u);
  EXPECT_TRUE(t->ready("data-in"));
}

TEST(RmiMapperTest, ServicePushesThroughGatewayToItself) {
  // The paper's §5.3 RMI benchmark topology: the service sends messages to
  // itself through uMiddle (gateway → translator out-port → path → in-port →
  // synchronous deliver call back to the service).
  RmiWorld w;
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));
  auto profiles = w.runtime->directory().lookup(core::Query().platform("rmi"));
  ASSERT_EQ(profiles.size(), 1u);

  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{profiles[0].id, "data-out"},
                           core::PortRef{profiles[0].id, "data-in"})
                  .ok());

  bool resolved = false;
  w.service->resolve_gateway([&](Result<void> r) {
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    resolved = true;
  });
  w.sched.run_for(seconds(1));
  ASSERT_TRUE(resolved);

  int pushed = 0;
  w.service->push(Bytes(1400, 0x11), [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    ++pushed;
  });
  w.sched.run_for(seconds(2));
  EXPECT_EQ(pushed, 1);
  EXPECT_EQ(w.service->received(), 1u);  // came back around
}

// --- MediaBroker -------------------------------------------------------------------------

TEST(MbProtocolTest, FrameRoundTrips) {
  for (mb::Op op : {mb::Op::produce, mb::Op::consume, mb::Op::data, mb::Op::watch,
                    mb::Op::announce, mb::Op::retire}) {
    mb::Frame f;
    f.op = op;
    f.stream = "cam-1";
    f.media_type = "image/jpeg";
    f.payload = Bytes(37, 0x9);
    std::vector<mb::Frame> out;
    mb::Reader d;
    ASSERT_TRUE(d.feed(f.encode(), out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].op, op);
    EXPECT_EQ(out[0].stream, "cam-1");
    if (op == mb::Op::data) {
      EXPECT_EQ(out[0].payload.size(), 37u);
    }
    if (op == mb::Op::produce || op == mb::Op::announce) {
      EXPECT_EQ(out[0].media_type, "image/jpeg");
    }
  }
}

TEST(MbProtocolTest, DecoderRejectsBadOpcode) {
  std::vector<mb::Frame> out;
  mb::Reader d;
  EXPECT_FALSE(d.feed(Bytes{99, 0, 0}, out).ok());
}

// The broker's step keeps a DATA frame's bytes as they arrived, and its
// payload view is the client's decoded payload; other frames decode alike.
TEST(MbProtocolTest, WireFrameKeepsTheDataFrameItArrivedAs) {
  Bytes payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);
  const Bytes data = mb::encode_data("cam-1", payload);
  std::vector<mb::WireFrame> out;
  ASSERT_EQ(mb::next_wire_frame(data, out).value(), data.size());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].head.op, mb::Op::data);
  EXPECT_EQ(out[0].head.stream, "cam-1");
  EXPECT_TRUE(out[0].head.payload.empty());
  EXPECT_EQ(out[0].wire, data);
  EXPECT_EQ(Bytes(out[0].payload().begin(), out[0].payload().end()), payload);
  EXPECT_EQ(out[0].encode(), data);

  const Bytes produce = mb::Frame{mb::Op::produce, "cam-1", "image/jpeg", {}}.encode();
  out.clear();
  ASSERT_EQ(mb::next_wire_frame(produce, out).value(), produce.size());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].head.media_type, "image/jpeg");
  EXPECT_TRUE(out[0].wire.empty());
  EXPECT_EQ(out[0].encode(), produce);
}

TEST(MbServerTest, ProducerToConsumerFanOut) {
  Lan f;
  f.add_host("broker");
  f.add_host("prod");
  f.add_host("cons1");
  f.add_host("cons2");
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());

  mb::MbClient producer(f.net, "prod", server.endpoint());
  mb::MbClient consumer1(f.net, "cons1", server.endpoint());
  mb::MbClient consumer2(f.net, "cons2", server.endpoint());
  ASSERT_TRUE(producer.connect().ok());
  ASSERT_TRUE(consumer1.connect().ok());
  ASSERT_TRUE(consumer2.connect().ok());
  ASSERT_TRUE(producer.produce("feed", "application/octet-stream").ok());
  ASSERT_TRUE(consumer1.consume("feed").ok());
  ASSERT_TRUE(consumer2.consume("feed").ok());
  f.sched.run();

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(producer.send("feed", Bytes(500)).ok());
  f.sched.run();
  EXPECT_EQ(consumer1.frames_received(), 3u);
  EXPECT_EQ(consumer2.frames_received(), 3u);
  EXPECT_EQ(consumer1.bytes_received(), 1500u);
  EXPECT_EQ(server.frames_forwarded(), 6u);
}

TEST(MbServerTest, TransformAppliesInline) {
  Lan f;
  f.add_host("broker");
  f.add_host("prod");
  f.add_host("cons");
  mb::MbServer server(f.net, "broker");
  // MediaBroker's signature: in-line media transformation (here: downscale 2:1).
  server.set_transform("video", [](std::span<const std::uint8_t> in) {
    Bytes out;
    for (std::size_t i = 0; i < in.size(); i += 2) out.push_back(in[i]);
    return out;
  });
  ASSERT_TRUE(server.start().ok());
  mb::MbClient producer(f.net, "prod", server.endpoint());
  mb::MbClient consumer(f.net, "cons", server.endpoint());
  ASSERT_TRUE(producer.connect().ok());
  ASSERT_TRUE(consumer.connect().ok());
  ASSERT_TRUE(producer.produce("video", "application/octet-stream").ok());
  ASSERT_TRUE(consumer.consume("video").ok());
  f.sched.run();
  ASSERT_TRUE(producer.send("video", Bytes(1000)).ok());
  f.sched.run();
  EXPECT_EQ(consumer.bytes_received(), 500u);
}

TEST(MbServerTest, WatchAnnouncesExistingAndFutureStreams) {
  Lan f;
  f.add_host("broker");
  f.add_host("a");
  f.add_host("b");
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());
  mb::MbClient early(f.net, "a", server.endpoint());
  ASSERT_TRUE(early.connect().ok());
  ASSERT_TRUE(early.produce("first", "image/jpeg").ok());
  f.sched.run();

  mb::MbClient watcher(f.net, "b", server.endpoint());
  std::vector<std::string> announced;
  watcher.on_announce([&](const std::string& s, const std::string&, bool alive) {
    if (alive) announced.push_back(s);
  });
  ASSERT_TRUE(watcher.connect().ok());
  ASSERT_TRUE(watcher.watch().ok());
  f.sched.run();
  EXPECT_EQ(announced, std::vector<std::string>{"first"});

  ASSERT_TRUE(early.produce("second", "image/jpeg").ok());
  f.sched.run();
  EXPECT_EQ(announced, (std::vector<std::string>{"first", "second"}));
}

TEST(MbServerTest, RepeatedWatchAnnouncesOnce) {
  Lan f;
  f.add_host("broker");
  f.add_host("a");
  f.add_host("b");
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());
  mb::MbClient watcher(f.net, "b", server.endpoint());
  std::vector<std::pair<std::string, bool>> seen;
  watcher.on_announce([&](const std::string& s, const std::string&, bool alive) {
    seen.emplace_back(s, alive);
  });
  ASSERT_TRUE(watcher.connect().ok());
  ASSERT_TRUE(watcher.watch().ok());
  ASSERT_TRUE(watcher.watch().ok());
  f.sched.run();

  mb::MbClient producer(f.net, "a", server.endpoint());
  ASSERT_TRUE(producer.connect().ok());
  ASSERT_TRUE(producer.produce("cam", "image/jpeg").ok());
  f.sched.run();
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, bool>>{{"cam", true}}));

  // A repeated WATCH still replays the streams that exist.
  ASSERT_TRUE(watcher.watch().ok());
  f.sched.run();
  ASSERT_TRUE(producer.retire("cam").ok());
  f.sched.run();
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, bool>>{
                      {"cam", true}, {"cam", true}, {"cam", false}}));
}

TEST(MbServerTest, OnlyTheProducerRetiresItsStream) {
  Lan f;
  f.add_host("broker");
  f.add_host("prod");
  f.add_host("cons");
  f.add_host("watch");
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());
  mb::MbClient producer(f.net, "prod", server.endpoint());
  mb::MbClient consumer(f.net, "cons", server.endpoint());
  mb::MbClient watcher(f.net, "watch", server.endpoint());
  std::vector<std::pair<std::string, bool>> seen;
  watcher.on_announce([&](const std::string& s, const std::string&, bool alive) {
    seen.emplace_back(s, alive);
  });
  ASSERT_TRUE(producer.connect().ok());
  ASSERT_TRUE(consumer.connect().ok());
  ASSERT_TRUE(watcher.connect().ok());
  ASSERT_TRUE(watcher.watch().ok());
  ASSERT_TRUE(producer.produce("feed", "application/octet-stream").ok());
  ASSERT_TRUE(consumer.consume("feed").ok());
  f.sched.run();
  ASSERT_EQ(server.stream_count(), 1u);

  ASSERT_TRUE(consumer.retire("feed").ok());
  f.sched.run();
  EXPECT_EQ(server.stream_count(), 1u);
  ASSERT_TRUE(producer.send("feed", Bytes(200)).ok());
  f.sched.run();
  EXPECT_EQ(consumer.frames_received(), 1u);
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, bool>>{{"feed", true}}));

  ASSERT_TRUE(producer.retire("feed").ok());
  f.sched.run();
  EXPECT_EQ(server.stream_count(), 0u);
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, bool>>{{"feed", true}, {"feed", false}}));
  ASSERT_TRUE(producer.send("feed", Bytes(200)).ok());
  f.sched.run();
  EXPECT_EQ(consumer.frames_received(), 1u);
}

// A PRODUCE from a connection that does not own the stream neither retypes
// it nor announces it; once the producer drops, the stream may be claimed.
TEST(MbServerTest, OnlyTheProducerRetypesItsStream) {
  Lan f;
  f.add_host("broker");
  f.add_host("prod");
  f.add_host("other");
  f.add_host("watch");
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());
  auto producer = std::make_unique<mb::MbClient>(f.net, "prod", server.endpoint());
  mb::MbClient other(f.net, "other", server.endpoint());
  mb::MbClient watcher(f.net, "watch", server.endpoint());
  std::vector<std::pair<std::string, std::string>> seen;
  watcher.on_announce([&](const std::string& s, const std::string& type, bool alive) {
    if (alive) seen.emplace_back(s, type);
  });
  ASSERT_TRUE(producer->connect().ok());
  ASSERT_TRUE(other.connect().ok());
  ASSERT_TRUE(watcher.connect().ok());
  ASSERT_TRUE(watcher.watch().ok());
  ASSERT_TRUE(producer->produce("cam", "image/jpeg").ok());
  f.sched.run();
  ASSERT_TRUE(other.produce("cam", "application/octet-stream").ok());
  f.sched.run();
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, std::string>>{{"cam", "image/jpeg"}}));

  // A watcher that connects now is announced the producer's type.
  mb::MbClient late(f.net, "watch", server.endpoint());
  std::vector<std::pair<std::string, std::string>> late_seen;
  late.on_announce([&](const std::string& s, const std::string& type, bool alive) {
    if (alive) late_seen.emplace_back(s, type);
  });
  ASSERT_TRUE(late.connect().ok());
  ASSERT_TRUE(late.watch().ok());
  f.sched.run();
  EXPECT_EQ(late_seen, (std::vector<std::pair<std::string, std::string>>{{"cam", "image/jpeg"}}));

  // The producer's own PRODUCE still retypes it.
  ASSERT_TRUE(producer->produce("cam", "image/png").ok());
  f.sched.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.back().second, "image/png");

  // With its producer gone, the stream is unowned and another connection claims it.
  producer->close();
  f.sched.run();
  ASSERT_TRUE(other.produce("cam", "application/octet-stream").ok());
  f.sched.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.back(), (std::pair<std::string, std::string>{"cam", "application/octet-stream"}));
}

// DATA from a connection that does not own the stream is not forwarded: only
// its producer feeds a stream's consumers.
TEST(MbServerTest, OnlyTheProducerFeedsItsStream) {
  Lan f;
  f.add_host("broker");
  f.add_host("prod");
  f.add_host("cons");
  f.add_host("other");
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());
  mb::MbClient producer(f.net, "prod", server.endpoint());
  mb::MbClient consumer(f.net, "cons", server.endpoint());
  mb::MbClient other(f.net, "other", server.endpoint());
  ASSERT_TRUE(producer.connect().ok());
  ASSERT_TRUE(consumer.connect().ok());
  ASSERT_TRUE(other.connect().ok());
  ASSERT_TRUE(producer.produce("cam", "image/jpeg").ok());
  ASSERT_TRUE(consumer.consume("cam").ok());
  f.sched.run();

  ASSERT_TRUE(other.send("cam", Bytes(300)).ok());
  f.sched.run();
  EXPECT_EQ(consumer.frames_received(), 0u);
  EXPECT_EQ(server.frames_forwarded(), 0u);

  ASSERT_TRUE(producer.send("cam", Bytes(200)).ok());
  f.sched.run();
  EXPECT_EQ(consumer.frames_received(), 1u);
  EXPECT_EQ(consumer.bytes_received(), 200u);
  EXPECT_EQ(server.frames_forwarded(), 1u);
}

// Stopping the broker closes every connection and tells the watchers nothing.
TEST(MbServerTest, StoppingTheBrokerBroadcastsNothing) {
  Lan f;
  f.add_host("broker");
  f.add_host("prod");
  f.add_host("watch");
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());
  mb::MbClient producer(f.net, "prod", server.endpoint());
  mb::MbClient watcher(f.net, "watch", server.endpoint());
  std::vector<std::pair<std::string, bool>> seen;
  watcher.on_announce([&](const std::string& s, const std::string&, bool alive) {
    seen.emplace_back(s, alive);
  });
  ASSERT_TRUE(producer.connect().ok());
  ASSERT_TRUE(watcher.connect().ok());
  ASSERT_TRUE(watcher.watch().ok());
  ASSERT_TRUE(producer.produce("cam", "image/jpeg").ok());
  f.sched.run();
  server.stop();
  f.sched.run();
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, bool>>{{"cam", true}}));
  EXPECT_EQ(server.stream_count(), 0u);
}

// A producer whose connection closes retires its streams, as its RETIRE
// would: the watchers are told, and a runtime that bridges the stream unmaps
// it.
TEST(MbMapperTest, AClosedProducerConnectionRetiresItsStreams) {
  Lan f;
  f.add_host("broker");
  f.add_host("svc");
  f.add_host("watch");
  f.add_host("umnode");
  core::UsdlLibrary library;
  mb::register_mb_usdl(library);
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());
  mb::MbClient native(f.net, "svc", server.endpoint());
  ASSERT_TRUE(native.connect().ok());
  ASSERT_TRUE(native.produce("sensor-feed", "application/octet-stream").ok());
  mb::MbClient watcher(f.net, "watch", server.endpoint());
  std::vector<bool> seen;
  watcher.on_announce([&](const std::string& s, const std::string&, bool alive) {
    if (s == "sensor-feed") seen.push_back(alive);
  });
  ASSERT_TRUE(watcher.connect().ok());
  ASSERT_TRUE(watcher.watch().ok());
  core::Runtime runtime(f.sched, f.net, "umnode");
  runtime.add_mapper(std::make_unique<mb::MbMapper>(server.endpoint(), library));
  ASSERT_TRUE(runtime.start().ok());
  f.sched.run_for(seconds(2));
  ASSERT_EQ(runtime.directory().lookup(core::Query().platform("mb")).size(), 1u);

  native.close();
  f.sched.run_for(seconds(1));
  EXPECT_EQ(seen, (std::vector<bool>{true, false}));
  EXPECT_EQ(runtime.directory().lookup(core::Query().platform("mb")).size(), 0u);
  EXPECT_EQ(server.stream_count(), 0u);  // the translator retired its own stream too
}

TEST(MbMapperTest, ImportsStreamAndBridgesBothDirections) {
  Lan f;
  f.add_host("broker");
  f.add_host("svc");
  f.add_host("umnode");
  core::UsdlLibrary library;
  mb::register_mb_usdl(library);
  mb::MbServer server(f.net, "broker");
  ASSERT_TRUE(server.start().ok());

  mb::MbClient native(f.net, "svc", server.endpoint());
  ASSERT_TRUE(native.connect().ok());
  ASSERT_TRUE(native.produce("sensor-feed", "application/octet-stream").ok());

  core::Runtime runtime(f.sched, f.net, "umnode");
  runtime.add_mapper(std::make_unique<mb::MbMapper>(server.endpoint(), library));
  ASSERT_TRUE(runtime.start().ok());
  f.sched.run_for(seconds(2));

  auto profiles = runtime.directory().lookup(core::Query().platform("mb"));
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].name, "MB sensor-feed");

  // Native → uMiddle: frames emitted from media-out.
  auto sink = std::make_unique<core::CollectorDevice>(
      "Sink", core::make_sink_shape("in", MimeType::of("application/octet-stream")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = runtime.map(std::move(sink)).take();
  ASSERT_TRUE(runtime.transport()
                  .connect(core::PortRef{profiles[0].id, "media-out"},
                           core::PortRef{sink_id, "in"})
                  .ok());
  ASSERT_TRUE(native.send("sensor-feed", Bytes(700, 0x1)).ok());
  f.sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 1u);
  EXPECT_EQ(sink_raw->received()[0].msg.payload.size(), 700u);

  // uMiddle → native: deliveries are published under "<stream>-out".
  mb::MbClient back(f.net, "svc", server.endpoint());
  ASSERT_TRUE(back.connect().ok());
  ASSERT_TRUE(back.consume("sensor-feed-out").ok());
  f.sched.run_for(milliseconds(100));
  core::Translator* t = runtime.translator(profiles[0].id);
  core::Message msg;
  msg.type = MimeType::of("application/octet-stream");
  msg.payload = Bytes(300, 0x2);
  ASSERT_TRUE(t->deliver("media-in", msg).ok());
  f.sched.run_for(seconds(1));
  EXPECT_EQ(back.frames_received(), 1u);
  EXPECT_EQ(back.bytes_received(), 300u);
}

// --- Motes -----------------------------------------------------------------------------------

TEST(MotesTest, ReadingCodecRoundTrip) {
  motes::Reading r{7, motes::SensorKind::temperature, 123, 42};
  auto back = motes::Reading::decode(r.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().mote_id, 7);
  EXPECT_EQ(back.value().kind, motes::SensorKind::temperature);
  EXPECT_EQ(back.value().value, 123);
  EXPECT_EQ(back.value().sequence, 42);
  EXPECT_FALSE(motes::Reading::decode(Bytes{0, 0}).ok());
  Bytes bad_kind = r.encode();
  bad_kind[4] = 9;
  EXPECT_FALSE(motes::Reading::decode(bad_kind).ok());
}

TEST(MotesTest, MoteBroadcastsPeriodically) {
  Lan f;
  motes::MoteField field(f.net, /*loss=*/0.0);
  f.add_host("gw");
  ASSERT_TRUE(field.attach_gateway("gw").ok());
  int received = 0;
  ASSERT_TRUE(f.net.udp_bind({"gw", motes::kAmPort}, [&](auto, const Bytes& p) {
    auto r = motes::Reading::decode(p);
    ASSERT_TRUE(r.ok());
    ++received;
  }).ok());
  motes::Mote mote(field, 3, motes::SensorKind::light, milliseconds(500));
  ASSERT_TRUE(mote.start().ok());
  f.sched.run_for(seconds(5));
  EXPECT_GE(received, 10);
  EXPECT_LE(received, 11);
}

TEST(MotesTest, RestartInsideOnePeriodKeepsTheBroadcastRate) {
  Lan f;
  motes::MoteField field(f.net, /*loss=*/0.0);
  f.add_host("gw");
  ASSERT_TRUE(field.attach_gateway("gw").ok());
  int received = 0;
  ASSERT_TRUE(
      f.net.udp_bind({"gw", motes::kAmPort}, [&](auto, const Bytes&) { ++received; }).ok());
  motes::Mote mote(field, 3, motes::SensorKind::light, milliseconds(500));
  ASSERT_TRUE(mote.start().ok());
  f.sched.run_for(milliseconds(1200));  // 200 ms into a period
  mote.stop();
  ASSERT_TRUE(mote.start().ok());  // broadcasts at once, then every 500 ms
  received = 0;
  f.sched.run_for(seconds(10));
  EXPECT_EQ(received, 20);
}

// A mote sends from its own bound socket: the port is taken while it runs,
// free after stop(), and a restarted mote binds it again and keeps sending.
TEST(MotesTest, RestartedMoteSendsFromAReboundSocket) {
  Lan f;
  motes::MoteField field(f.net, /*loss=*/0.0);
  f.add_host("gw");
  ASSERT_TRUE(field.attach_gateway("gw").ok());
  std::vector<std::uint16_t> sequences;
  ASSERT_TRUE(f.net.udp_bind({"gw", motes::kAmPort}, [&](auto, const Bytes& p) {
    auto r = motes::Reading::decode(p);
    ASSERT_TRUE(r.ok());
    sequences.push_back(r.value().sequence);
  }).ok());
  motes::Mote mote(field, 7, motes::SensorKind::humidity, milliseconds(500));
  const auto bind_mote_port = [&] {
    auto bound = f.net.udp_bind({"mote-7", motes::kAmPort}, [](auto, auto&) {});
    if (bound.ok()) f.net.udp_close(bound.value());
    return bound.ok();
  };
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(mote.start().ok());
    EXPECT_FALSE(bind_mote_port()) << "run " << run;
    f.sched.run_for(milliseconds(1200));
    mote.stop();
    EXPECT_TRUE(bind_mote_port()) << "run " << run;
  }
  // Three readings per run, and the restart resumes the sequence.
  EXPECT_EQ(sequences, (std::vector<std::uint16_t>{0, 1, 2, 3, 4, 5}));
}

TEST(MotesTest, MapperRestartInsideOneSweepKeepsTheSweepRate) {
  Lan f;
  motes::MoteField field(f.net, 0.0);
  f.add_host("umnode");
  core::UsdlLibrary library;
  motes::register_motes_usdl(library);
  core::Runtime runtime(f.sched, f.net, "umnode");
  // Silence timeout 2 s: the mapper sweeps for silent motes every second.
  runtime.add_mapper(std::make_unique<motes::MoteMapper>(field, library, seconds(2)));
  ASSERT_TRUE(runtime.start().ok());
  motes::Mote mote(field, 5, motes::SensorKind::light, milliseconds(500));
  ASSERT_TRUE(mote.start().ok());
  f.sched.run_for(milliseconds(2300));
  runtime.stop();
  ASSERT_TRUE(runtime.start().ok());

  auto sweeps_in = [&](sim::Duration window) {
    f.sched.trace_recorder().enable(1 << 16);
    f.sched.run_for(window);
    std::size_t sweeps = 0;
    for (const sim::TraceRecord& rec : f.sched.trace_recorder().snapshot()) {
      sweeps += rec.tag == sim::tag_id("motes.sweep") ? 1 : 0;
    }
    f.sched.trace_recorder().disable();
    return sweeps;
  };
  EXPECT_EQ(sweeps_in(seconds(10)), 10u);
  // The restarted mapper re-imports the mote it still hears.
  EXPECT_EQ(runtime.directory().lookup(core::Query().platform("motes")).size(), 1u);
  runtime.stop();
  EXPECT_EQ(sweeps_in(seconds(3)), 0u);  // a stopped mapper does not sweep
}

TEST(MotesTest, MapperImportsAndEmitsReadings) {
  Lan f;
  motes::MoteField field(f.net, /*loss=*/0.0);
  f.add_host("umnode");
  core::UsdlLibrary library;
  motes::register_motes_usdl(library);
  core::Runtime runtime(f.sched, f.net, "umnode");
  runtime.add_mapper(std::make_unique<motes::MoteMapper>(field, library));
  ASSERT_TRUE(runtime.start().ok());

  motes::Mote light(field, 1, motes::SensorKind::light, milliseconds(500));
  motes::Mote temp(field, 2, motes::SensorKind::temperature, milliseconds(500));
  ASSERT_TRUE(light.start().ok());
  ASSERT_TRUE(temp.start().ok());
  f.sched.run_for(seconds(3));

  auto profiles = runtime.directory().lookup(core::Query().platform("motes"));
  ASSERT_EQ(profiles.size(), 2u);

  auto sensors = runtime.directory().lookup(
      core::Query().digital_output(MimeType::of("application/x-sensor+xml")));
  EXPECT_EQ(sensors.size(), 2u);

  auto sink = std::make_unique<core::CollectorDevice>(
      "Logger", core::make_sink_shape("in", MimeType::of("application/x-sensor+xml")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = runtime.map(std::move(sink)).take();
  for (const auto& p : profiles) {
    ASSERT_TRUE(runtime.transport()
                    .connect(core::PortRef{p.id, "reading-out"}, core::PortRef{sink_id, "in"})
                    .ok());
  }
  f.sched.run_for(seconds(2));
  EXPECT_GE(sink_raw->count(), 6u);
  std::string doc = sink_raw->received()[0].msg.body_text();
  EXPECT_NE(doc.find("<reading"), std::string::npos);
  EXPECT_NE(doc.find("value="), std::string::npos);
}

TEST(MotesTest, SilentMoteIsUnmapped) {
  Lan f;
  motes::MoteField field(f.net, 0.0);
  f.add_host("umnode");
  core::UsdlLibrary library;
  motes::register_motes_usdl(library);
  core::Runtime runtime(f.sched, f.net, "umnode");
  runtime.add_mapper(std::make_unique<motes::MoteMapper>(field, library, seconds(5)));
  ASSERT_TRUE(runtime.start().ok());

  motes::Mote mote(field, 9, motes::SensorKind::humidity, milliseconds(500));
  ASSERT_TRUE(mote.start().ok());
  f.sched.run_for(seconds(3));
  ASSERT_EQ(runtime.directory().lookup(core::Query().platform("motes")).size(), 1u);

  mote.stop();  // battery died: no byebye on a sensor net
  f.sched.run_for(seconds(12));
  EXPECT_EQ(runtime.directory().lookup(core::Query().platform("motes")).size(), 0u);
}

TEST(MotesTest, LossyRadioStillConverges) {
  Lan f;
  motes::MoteField field(f.net, /*loss=*/0.3);
  f.add_host("umnode");
  core::UsdlLibrary library;
  motes::register_motes_usdl(library);
  core::Runtime runtime(f.sched, f.net, "umnode");
  runtime.add_mapper(std::make_unique<motes::MoteMapper>(field, library));
  ASSERT_TRUE(runtime.start().ok());
  motes::Mote mote(field, 4, motes::SensorKind::light, milliseconds(250));
  ASSERT_TRUE(mote.start().ok());
  f.sched.run_for(seconds(10));
  // Despite 30% loss, enough packets get through to import the mote.
  EXPECT_EQ(runtime.directory().lookup(core::Query().platform("motes")).size(), 1u);
}

}  // namespace
}  // namespace umiddle
