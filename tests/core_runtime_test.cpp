// Integration tests for the uMiddle core: runtime + directory + transport over
// the simulated network. Covers mapping/advertising, fixed and dynamic (query)
// message paths, cross-node bridging over UMTP, backpressure, QoS, the
// virtual-time instantiation cost, and the USDL translator's port-typed
// emission and unmap lifetime.
#include <gtest/gtest.h>

#include "conservation.hpp"
#include "core/umiddle.hpp"

namespace umiddle::core {
namespace {

using sim::milliseconds;
using sim::seconds;

MimeType jpeg() { return MimeType::of("image/jpeg"); }

/// Two-runtime world on a 10 Mbps hub.
struct World {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId hub;
  std::unique_ptr<Runtime> a;
  std::unique_ptr<Runtime> b;

  World() {
    net::SegmentSpec spec;
    spec.latency = sim::microseconds(100);
    hub = net.add_segment(spec);
    for (const char* h : {"hostA", "hostB"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, hub).ok());
    }
    a = std::make_unique<Runtime>(sched, net, "hostA");
    b = std::make_unique<Runtime>(sched, net, "hostB");
  }

  void start_all() {
    ASSERT_TRUE(a->start().ok());
    ASSERT_TRUE(b->start().ok());
    settle();
  }

  void settle() { sched.run_for(seconds(1)); }
};

std::unique_ptr<LambdaDevice> make_camera(const std::string& name = "Camera") {
  return std::make_unique<LambdaDevice>(name, make_source_shape("image-out", jpeg()));
}

std::unique_ptr<CollectorDevice> make_display(const std::string& name = "Display") {
  Shape shape = make_sink_shape("image-in", jpeg());
  PortSpec screen;
  screen.name = "screen";
  screen.kind = PortKind::physical;
  screen.direction = Direction::output;
  screen.type = MimeType::of("visible/screen");
  EXPECT_TRUE(shape.add(std::move(screen)).ok());
  return std::make_unique<CollectorDevice>(name, std::move(shape));
}

Message jpeg_message(std::size_t size = 100) {
  Message m;
  m.type = jpeg();
  m.payload = Bytes(size, 0xFF);
  return m;
}

// --- mapping & directory -------------------------------------------------------------

TEST(RuntimeTest, MapAssignsGloballyUniqueIdsAndPublishes) {
  World w;
  w.start_all();
  auto cam = make_camera();
  auto id_a = w.a->map(std::move(cam));
  ASSERT_TRUE(id_a.ok());
  auto id_b = w.b->map(make_camera("Camera B"));
  ASSERT_TRUE(id_b.ok());
  EXPECT_NE(id_a.value(), id_b.value());

  EXPECT_NE(w.a->translator(id_a.value()), nullptr);
  EXPECT_EQ(w.a->translator(id_b.value()), nullptr);  // hosted on B

  const TranslatorProfile* p = w.a->directory().profile(id_a.value());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->node, w.a->node());
  EXPECT_EQ(p->platform, "umiddle");
}

TEST(RuntimeTest, MapRejectsEmptyShapeAndNull) {
  World w;
  w.start_all();
  EXPECT_FALSE(w.a->map(nullptr).ok());
  EXPECT_FALSE(w.a->map(std::make_unique<LambdaDevice>("empty", Shape{})).ok());
}

TEST(RuntimeTest, StartFailsForUnknownHost) {
  sim::Scheduler sched;
  net::Network net(sched);
  Runtime r(sched, net, "ghost");
  EXPECT_FALSE(r.start().ok());
}

// The advert bytes are a wire format: these literals were written by the
// element-tree serializer that announce_text replaced, and every runtime,
// forged advert and fuzz row now sends announce_text's bytes.
TEST(DirectoryTest, AnnounceTextIsThePinnedAdvert) {
  TranslatorProfile p;
  p.id = TranslatorId((7ull << 32) | 3);
  p.node = NodeId(7);
  p.name = "Tom & Jerry's <\"Camera\">";
  p.platform = "bluetooth";
  p.device_type = "urn:x-bt:bip&imaging";
  ASSERT_TRUE(p.shape
                  .add({"image<out>", PortKind::digital, Direction::output, jpeg(),
                        "photos & \"stills\""})
                  .ok());
  ASSERT_TRUE(p.shape
                  .add({"lamp's", PortKind::physical, Direction::output,
                        MimeType::of("visible/light"), ""})
                  .ok());
  ASSERT_TRUE(
      p.shape.add({"ctl", PortKind::digital, Direction::input, MimeType::of("text/plain"), ""})
          .ok());
  const NodeInfo sender{NodeId(9), "host-b", 7702};
  EXPECT_EQ(announce_text(p, sender),
            "<umiddle-adv type=\"announce\" node=\"9\" host=\"host-b\" umtp-port=\"7702\">"
            "<translator id=\"30064771075\" name=\"Tom &amp; Jerry&apos;s &lt;&quot;Camera&quot;&gt;\""
            " platform=\"bluetooth\" device-type=\"urn:x-bt:bip&amp;imaging\" node=\"7\"><shape>"
            "<digital-port name=\"image&lt;out&gt;\" direction=\"output\" mime=\"image/jpeg\""
            " description=\"photos &amp; &quot;stills&quot;\"/>"
            "<physical-port name=\"lamp&apos;s\" direction=\"output\" tag=\"visible/light\"/>"
            "<digital-port name=\"ctl\" direction=\"input\" mime=\"text/plain\"/>"
            "</shape></translator></umiddle-adv>");
  EXPECT_EQ(bye_text(p.id, sender),
            "<umiddle-adv type=\"bye\" node=\"9\" host=\"host-b\" umtp-port=\"7702\""
            " translator-id=\"30064771075\"/>");
}

TEST(DirectoryTest, AdvertisementsPropagateAcrossRuntimes) {
  World w;
  w.start_all();
  auto id = w.a->map(make_camera()).take();
  w.settle();
  // B's directory learned the camera via multicast announce.
  const TranslatorProfile* p = w.b->directory().profile(id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "Camera");
  EXPECT_EQ(p->node, w.a->node());
  // And B knows how to reach A's transport.
  const NodeInfo* info = w.b->directory().node_info(w.a->node());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->host, "hostA");
}

TEST(DirectoryTest, ProbeRecoversPreexistingTranslators) {
  World w;
  // A starts and maps before B even exists on the network.
  ASSERT_TRUE(w.a->start().ok());
  auto id = w.a->map(make_camera()).take();
  w.settle();
  // B starts later; its probe must pull A's announcements.
  ASSERT_TRUE(w.b->start().ok());
  w.settle();
  EXPECT_NE(w.b->directory().profile(id), nullptr);
}

TEST(DirectoryTest, UnmapSendsByeEverywhere) {
  World w;
  w.start_all();
  auto id = w.a->map(make_camera()).take();
  w.settle();
  ASSERT_NE(w.b->directory().profile(id), nullptr);
  ASSERT_TRUE(w.a->unmap(id).ok());
  w.settle();
  EXPECT_EQ(w.a->directory().profile(id), nullptr);
  EXPECT_EQ(w.b->directory().profile(id), nullptr);
}

TEST(DirectoryTest, ListenersSeeMapAndUnmapExactlyOnce) {
  World w;
  w.start_all();
  int mapped = 0, unmapped = 0;
  LambdaListener listener([&](const TranslatorProfile&) { ++mapped; },
                          [&](const TranslatorProfile&) { ++unmapped; });
  w.b->directory().add_directory_listener(&listener);

  auto id = w.a->map(make_camera()).take();
  w.settle();
  EXPECT_EQ(mapped, 1);  // re-announcements must not re-notify
  ASSERT_TRUE(w.a->unmap(id).ok());
  w.settle();
  EXPECT_EQ(unmapped, 1);
  w.b->directory().remove_directory_listener(&listener);
}

TEST(DirectoryTest, LookupAppliesQuery) {
  World w;
  w.start_all();
  (void)w.a->map(make_camera()).take();
  (void)w.b->map(make_display()).take();
  w.settle();

  auto sources = w.a->directory().lookup(Query().digital_output(jpeg()));
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].name, "Camera");

  auto visible = w.a->directory().lookup(Query().physical_output(MimeType::of("visible/*")));
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(visible[0].name, "Display");

  EXPECT_EQ(w.a->directory().lookup(Query()).size(), 2u);
  EXPECT_EQ(w.a->directory().lookup(Query().platform("upnp")).size(), 0u);
}

// Only the directory's own socket is loopback: an advert from a second
// socket on the runtime's host, on another port, is parsed, and its node and
// translator are learned.
TEST(DirectoryTest, AdvertFromAnotherSocketOnTheSameHostIsLearned) {
  World w;
  ASSERT_TRUE(w.a->start().ok());
  w.settle();
  const RuntimeConfig& config = w.a->config();
  auto other = w.net.udp_bind({"hostA", static_cast<std::uint16_t>(config.directory_port + 1)},
                              [](net::UdpSocket, const Bytes&) {});
  ASSERT_TRUE(other.ok());
  TranslatorProfile p;
  p.id = TranslatorId((999ull << 32) | 1);
  p.node = NodeId(999);
  p.name = "Neighbour";
  p.platform = "upnp";
  p.shape = make_source_shape("out", jpeg());
  const std::string adv = announce_text(p, NodeInfo{NodeId(999), "hostA", 7702});
  ASSERT_TRUE(w.net
                  .udp_multicast(other.value(), w.net.group(config.group), config.directory_port,
                                 make_payload(to_bytes(adv)))
                  .ok());
  w.settle();
  const NodeInfo* info = w.a->directory().node_info(NodeId(999));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->host, "hostA");
  EXPECT_EQ(info->umtp_port, 7702);
  const TranslatorProfile* learned = w.a->directory().profile(p.id);
  ASSERT_NE(learned, nullptr);
  EXPECT_EQ(learned->name, "Neighbour");
}

// The refresh oracle. Random churn of hostA's local translators: publish,
// withdraw, a republish that changes the shape (a rebind), publish while
// stopped, stop/start and crash/restart. After every refresh tick, the adverts
// hostA multicast in it are, in order, a fresh serialization of its local
// entries in id order; the announce cache's hits and misses follow a model of
// which adverts are built; and the peer knows every local translator as it is.
TEST(DirectoryTest, RefreshAnnouncesEveryLocalInIdOrder) {
  World w;
  const RuntimeConfig& config = w.a->config();
  ASSERT_TRUE(w.net.add_host("tap").ok());
  ASSERT_TRUE(w.net.attach("tap", w.hub).ok());
  ASSERT_TRUE(w.net.join_group("tap", config.group).ok());
  std::vector<std::string> heard;  // hostA's adverts, as a third host hears them
  ASSERT_TRUE(w.net
                  .udp_bind({"tap", config.directory_port},
                            [&](net::UdpSocket from, const Bytes& payload) {
                              if (w.net.host_name(from.host) == "hostA") {
                                heard.push_back(umiddle::to_string(payload));
                              }
                            })
                  .ok());
  w.start_all();  // at t = 0, so the first tick is due at one period
  Directory& dir = w.a->directory();
  const obs::Counter& hits = w.net.metrics().counter("dir.announce_cache_hits");
  const obs::Counter& misses = w.net.metrics().counter("dir.announce_cache_misses");
  const sim::Duration period = dir.max_age() / 3;
  sim::TimePoint next_tick = period;

  // The model: every local translator, and whether its advert is built.
  struct Local {
    TranslatorProfile profile;
    bool built;
  };
  std::map<TranslatorId, Local> locals;
  std::uint64_t want_hits = 0, want_misses = 0;
  bool started = true;
  auto send_all = [&] {
    for (auto& [id, local] : locals) {
      ++(local.built ? want_hits : want_misses);
      local.built = true;
    }
  };
  Rng rng(29);
  auto publish = [&] {
    TranslatorProfile p;
    p.id = TranslatorId(rng.between(1, 16));
    p.name = "device-" + p.id.to_string();
    p.platform = "umiddle";
    p.node = w.a->node();
    p.shape = rng.below(2) == 0 ? make_source_shape("out", jpeg()) : make_sink_shape("in", jpeg());
    dir.publish_local(p);
    locals.insert_or_assign(p.id, Local{p, started});
    if (started) ++want_misses;
  };
  auto restart = [&] {
    ASSERT_TRUE(w.a->start().ok());
    started = true;
    send_all();
    next_tick = w.sched.now() + period;
  };
  auto announce = [&](const TranslatorProfile& p) {
    return announce_text(p, NodeInfo{w.a->node(), "hostA", config.umtp_port});
  };

  std::size_t most = 0, republished = 0;
  for (int tick = 0; tick < 80; ++tick) {
    for (std::uint64_t op = rng.below(4); op > 0; --op) {
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2: {
          const std::size_t known = locals.size();
          publish();
          republished += locals.size() == known;
          break;
        }
        case 3:
        case 4: {
          const TranslatorId id(rng.between(1, 16));
          dir.withdraw_local(id);
          locals.erase(id);
          break;
        }
        case 5:  // published while stopped: built at the next start
          w.a->stop();
          started = false;
          publish();
          restart();
          break;
        case 6:  // ids recycle after a crash
          w.a->crash();
          locals.clear();
          restart();
          publish();
          break;
        default: break;
      }
    }
    w.sched.run_until(next_tick - milliseconds(1));
    heard.clear();
    w.sched.run_until(next_tick + milliseconds(500));
    next_tick += period;
    send_all();

    std::vector<std::string> table, model;
    for (const TranslatorProfile& p : dir.lookup(Query())) {
      if (p.node == w.a->node()) table.push_back(announce(p));
    }
    for (const auto& [id, local] : locals) {
      model.push_back(announce(local.profile));
      const TranslatorProfile* known = w.b->directory().profile(id);
      ASSERT_NE(known, nullptr) << "tick " << tick;
      ASSERT_EQ(known->shape, local.profile.shape) << "tick " << tick;
    }
    ASSERT_EQ(table, model) << "tick " << tick;
    ASSERT_EQ(heard, table) << "tick " << tick;
    ASSERT_EQ(hits.value(), want_hits) << "tick " << tick;
    ASSERT_EQ(misses.value(), want_misses) << "tick " << tick;
    most = std::max(most, locals.size());
  }
  // The churn reached what it is for.
  EXPECT_GE(most, 8u);
  EXPECT_GT(republished, 10u);
}

// --- fixed paths -------------------------------------------------------------------------

TEST(TransportTest, LocalFixedPathDeliversInOrder) {
  World w;
  w.start_all();
  auto* cam_raw = make_camera().release();
  auto cam = std::unique_ptr<LambdaDevice>(cam_raw);
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  auto disp_id = w.a->map(std::move(disp)).take();
  w.settle();

  auto path = w.a->transport().connect(PortRef{cam_id, "image-out"},
                                       PortRef{disp_id, "image-in"});
  ASSERT_TRUE(path.ok());

  for (int i = 0; i < 5; ++i) {
    Message m = jpeg_message();
    m.meta["seq"] = std::to_string(i);
    ASSERT_TRUE(cam_raw->emit("image-out", std::move(m)).ok());
  }
  w.settle();
  ASSERT_EQ(disp_raw->count(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(disp_raw->received()[static_cast<std::size_t>(i)].msg.meta.at("seq"),
              std::to_string(i));
    EXPECT_EQ(disp_raw->received()[static_cast<std::size_t>(i)].port, "image-in");
  }
  const PathStats* stats = w.a->transport().stats(path.value());
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_forwarded, 5u);
  EXPECT_EQ(stats->bytes_forwarded, 500u);
}

TEST(TransportTest, ConnectValidatesCompatibility) {
  World w;
  w.start_all();
  auto cam_id = w.a->map(make_camera()).take();
  auto text_sink = std::make_unique<CollectorDevice>(
      "Logger", make_sink_shape("text-in", MimeType::of("text/plain")));
  auto text_id = w.a->map(std::move(text_sink)).take();
  auto disp_id = w.a->map(make_display()).take();
  w.settle();

  // jpeg output into text input: incompatible.
  auto bad = w.a->transport().connect(PortRef{cam_id, "image-out"}, PortRef{text_id, "text-in"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::incompatible);
  // input as source: invalid.
  EXPECT_FALSE(
      w.a->transport().connect(PortRef{disp_id, "image-in"}, PortRef{text_id, "text-in"}).ok());
  // unknown ports / translators.
  EXPECT_FALSE(
      w.a->transport().connect(PortRef{cam_id, "ghost"}, PortRef{disp_id, "image-in"}).ok());
  EXPECT_FALSE(w.a->transport()
                   .connect(PortRef{TranslatorId(999999), "x"}, PortRef{disp_id, "image-in"})
                   .ok());
  // physical port as destination: incompatible.
  EXPECT_FALSE(
      w.a->transport().connect(PortRef{cam_id, "image-out"}, PortRef{disp_id, "screen"}).ok());
}

TEST(TransportTest, EmitValidatesPortAndType) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  (void)w.a->map(std::move(cam)).take();

  EXPECT_FALSE(cam_raw->emit("ghost", jpeg_message()).ok());
  Message wrong = jpeg_message();
  wrong.type = MimeType::of("text/plain");
  EXPECT_FALSE(cam_raw->emit("image-out", std::move(wrong)).ok());
  // Unmapped translator cannot emit.
  LambdaDevice unmapped("Loose", make_source_shape("o", jpeg()));
  struct Probe : LambdaDevice {
    using LambdaDevice::LambdaDevice;
    Result<void> poke() { return emit("o", Message{MimeType::of("image/jpeg"), {}, {}}); }
  };
  Probe probe("Probe", make_source_shape("o", jpeg()));
  EXPECT_FALSE(probe.poke().ok());
}

TEST(TransportTest, CrossNodeFixedPathOverUmtp) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  auto disp_id = w.b->map(std::move(disp)).take();
  w.settle();

  // Path hosted on A (source side), destination on B.
  auto path = w.a->transport().connect(PortRef{cam_id, "image-out"},
                                       PortRef{disp_id, "image-in"});
  ASSERT_TRUE(path.ok());
  Message m = jpeg_message(5000);
  m.meta["filename"] = "dsc001.jpg";
  ASSERT_TRUE(cam_raw->emit("image-out", std::move(m)).ok());
  w.settle();
  ASSERT_EQ(disp_raw->count(), 1u);
  EXPECT_EQ(disp_raw->received()[0].msg.payload.size(), 5000u);
  EXPECT_EQ(disp_raw->received()[0].msg.meta.at("filename"), "dsc001.jpg");
}

TEST(TransportTest, RemoteConnectIsForwardedToHostingNode) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  auto disp_id = w.b->map(std::move(disp)).take();
  w.settle();

  // A CONNECT frame carries no QoS policy: a connect() that asks for one with
  // a remote source is refused instead of silently losing it, and nothing
  // reaches the hosting node.
  for (int which = 0; which < 3; ++which) {
    QosPolicy qos;
    if (which == 0) qos.rate_bytes_per_sec = 1000.0;
    if (which == 1) qos.max_buffered_bytes = 4096;
    if (which == 2) qos.message_ttl = std::chrono::milliseconds(50);
    auto refused = w.b->transport().connect(PortRef{cam_id, "image-out"},
                                            PortRef{disp_id, "image-in"}, qos);
    ASSERT_FALSE(refused.ok()) << "policy " << which;
    EXPECT_EQ(refused.error().code, Errc::invalid_argument);
  }
  w.settle();
  EXPECT_EQ(w.a->transport().local_path_count(), 0u);

  // connect() issued on B; source translator is hosted on A → CONNECT frame.
  auto path = w.b->transport().connect(PortRef{cam_id, "image-out"},
                                       PortRef{disp_id, "image-in"});
  ASSERT_TRUE(path.ok());
  w.settle();
  EXPECT_EQ(w.a->transport().local_path_count(), 1u);

  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp_raw->count(), 1u);

  // Remote disconnect tears the path down at A.
  ASSERT_TRUE(w.b->transport().disconnect(path.value()).ok());
  w.settle();
  EXPECT_EQ(w.a->transport().local_path_count(), 0u);
  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp_raw->count(), 1u);  // unchanged
}

TEST(TransportTest, DisconnectStopsDelivery) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  auto disp_id = w.a->map(std::move(disp)).take();
  w.settle();

  auto path = w.a->transport()
                  .connect(PortRef{cam_id, "image-out"}, PortRef{disp_id, "image-in"})
                  .take();
  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp_raw->count(), 1u);

  ASSERT_TRUE(w.a->transport().disconnect(path).ok());
  EXPECT_FALSE(w.a->transport().disconnect(path).ok());  // double disconnect
  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp_raw->count(), 1u);
}

// --- dynamic device binding (paper §3.5) ------------------------------------------------

TEST(BindingTest, QueryPathBindsExistingAndFutureTranslators) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp1 = make_display("Display 1");
  CollectorDevice* disp1_raw = disp1.get();
  (void)w.a->map(std::move(disp1)).take();
  w.settle();

  Query tv_query = Query().digital_input(jpeg());
  auto path = w.a->transport().connect(PortRef{cam_id, "image-out"}, tv_query);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(w.a->transport().bound_destinations(path.value()).size(), 1u);

  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp1_raw->count(), 1u);

  // A second display appears later — on another node — and is bound adaptively.
  auto disp2 = make_display("Display 2");
  CollectorDevice* disp2_raw = disp2.get();
  auto disp2_id = w.b->map(std::move(disp2)).take();
  w.settle();
  EXPECT_EQ(w.a->transport().bound_destinations(path.value()).size(), 2u);

  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp1_raw->count(), 2u);
  EXPECT_EQ(disp2_raw->count(), 1u);

  // Unmapping removes the binding; traffic continues to the survivor.
  // (disp2_raw is dangling after unmap — the runtime owns translators.)
  ASSERT_TRUE(w.b->unmap(disp2_id).ok());
  w.settle();
  EXPECT_EQ(w.a->transport().bound_destinations(path.value()).size(), 1u);
  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp1_raw->count(), 3u);
}

TEST(BindingTest, QueryNeverBindsIncompatibleOrSelfPort) {
  World w;
  w.start_all();
  // Echo device: jpeg in + jpeg out. A query path from its own output must not
  // bind its own output, and must bind its own *input* (self-echo is legal —
  // the paper's RMI benchmark sends a service's messages to itself).
  Shape echo_shape;
  ASSERT_TRUE(echo_shape.add(PortSpec{"in", PortKind::digital, Direction::input, jpeg(), ""}).ok());
  ASSERT_TRUE(echo_shape.add(PortSpec{"out", PortKind::digital, Direction::output, jpeg(), ""}).ok());
  auto echo = std::make_unique<CollectorDevice>("Echo", echo_shape);
  CollectorDevice* echo_raw = echo.get();
  auto echo_id = w.a->map(std::move(echo)).take();
  // Incompatible sink that must never be bound.
  (void)w.a->map(std::make_unique<CollectorDevice>(
      "TextSink", make_sink_shape("text-in", MimeType::of("text/plain")))).take();
  w.settle();

  auto path = w.a->transport().connect(PortRef{echo_id, "out"}, Query().digital_input(jpeg()));
  ASSERT_TRUE(path.ok());
  auto bound = w.a->transport().bound_destinations(path.value());
  ASSERT_EQ(bound.size(), 1u);
  EXPECT_EQ(bound[0].port, "in");
  EXPECT_EQ(bound[0].translator, echo_id);

  ASSERT_TRUE(echo_raw->emit("out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(echo_raw->count(), 1u);
}

TEST(BindingTest, QueryWithNoMatchesDeliversNothingUntilMatchAppears) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  w.settle();

  auto path = w.a->transport().connect(PortRef{cam_id, "image-out"},
                                       Query().digital_input(jpeg()));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(w.a->transport().bound_destinations(path.value()).size(), 0u);
  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();

  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  (void)w.a->map(std::move(disp)).take();
  w.settle();
  // The message emitted before the display existed is gone (no retroactive
  // delivery); new messages flow.
  EXPECT_EQ(disp_raw->count(), 0u);
  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message()).ok());
  w.settle();
  EXPECT_EQ(disp_raw->count(), 1u);
}

TEST(BindingTest, SourceUnmapTearsDownPath) {
  World w;
  w.start_all();
  auto cam_id = w.a->map(make_camera()).take();
  auto disp_id = w.a->map(make_display()).take();
  w.settle();
  auto path = w.a->transport()
                  .connect(PortRef{cam_id, "image-out"}, PortRef{disp_id, "image-in"})
                  .take();
  EXPECT_NE(w.a->transport().stats(path), nullptr);
  ASSERT_TRUE(w.a->unmap(cam_id).ok());
  w.settle();
  EXPECT_EQ(w.a->transport().stats(path), nullptr);
}

// --- backpressure & QoS -----------------------------------------------------------------

/// Sink whose readiness is controlled by the test; models a slow native
/// protocol behind a translator (e.g. a synchronous RMI call in flight).
class SlowSink : public Translator {
 public:
  explicit SlowSink(MimeType type)
      : Translator("SlowSink", "umiddle", "umiddle:slow", make_sink_shape("in", type)) {}

  Result<void> deliver(const std::string&, const Message& msg) override {
    ++delivered;
    bytes += msg.payload.size();
    busy = true;  // one message at a time; test releases via release()
    return ok_result();
  }
  bool ready(const std::string&) const override { return !busy; }
  void release() {
    busy = false;
    runtime()->notify_ready(profile().id);
  }

  int delivered = 0;
  std::size_t bytes = 0;
  bool busy = false;
};

TEST(QosTest, BackpressureAccumulatesInTranslationBuffer) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto sink = std::make_unique<SlowSink>(jpeg());
  SlowSink* sink_raw = sink.get();
  auto sink_id = w.a->map(std::move(sink)).take();
  w.settle();

  auto path = w.a->transport()
                  .connect(PortRef{cam_id, "image-out"}, PortRef{sink_id, "in"})
                  .take();
  // Burst of 10 messages into a sink that accepts one at a time.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message(1000)).ok());
  }
  w.settle();
  EXPECT_EQ(sink_raw->delivered, 1);  // first delivered, sink now busy
  const PathStats* stats = w.a->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->buffered_bytes, 9000u);  // the paper's §5.3 accumulation
  EXPECT_GE(stats->max_buffered_bytes, 9000u);

  // Releasing the sink drains one more each time.
  for (int expected = 2; expected <= 10; ++expected) {
    sink_raw->release();
    w.settle();
    EXPECT_EQ(sink_raw->delivered, expected);
  }
  EXPECT_EQ(w.a->transport().stats(path)->buffered_bytes, 0u);
}

TEST(QosTest, BoundedBufferDropsExcess) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto sink = std::make_unique<SlowSink>(jpeg());
  SlowSink* sink_raw = sink.get();
  auto sink_id = w.a->map(std::move(sink)).take();
  w.settle();

  QosPolicy policy;
  policy.max_buffered_bytes = 3000;  // room for 3 × 1000 B
  auto path = w.a->transport()
                  .connect(PortRef{cam_id, "image-out"}, PortRef{sink_id, "in"}, policy)
                  .take();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message(1000)).ok());
  }
  w.settle();
  const PathStats* stats = w.a->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_LE(stats->max_buffered_bytes, 3000u);
  EXPECT_GT(stats->messages_dropped, 0u);
  // Everything not dropped is eventually delivered.
  while (sink_raw->busy) {
    sink_raw->release();
    w.settle();
  }
  EXPECT_EQ(static_cast<std::uint64_t>(sink_raw->delivered) + stats->messages_dropped, 10u);
}

TEST(QosTest, TokenBucketShapesPathRate) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  auto disp_id = w.a->map(std::move(disp)).take();
  w.settle();

  QosPolicy policy;
  policy.rate_bytes_per_sec = 10000.0;  // 10 kB/s
  policy.burst_bytes = 1000;
  (void)w.a->transport()
      .connect(PortRef{cam_id, "image-out"}, PortRef{disp_id, "image-in"}, policy)
      .take();

  // 50 kB enqueued at t=0 must take ≈ (50-1)/10 ≈ 4.9 s to deliver.
  sim::TimePoint start = w.sched.now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message(1000)).ok());
  }
  w.sched.run_for(seconds(2));
  std::size_t after_2s = disp_raw->count();
  EXPECT_GT(after_2s, 15u);
  EXPECT_LT(after_2s, 30u);  // ≈ 21 (1 kB burst + 20 kB)
  w.sched.run_for(seconds(10));
  EXPECT_EQ(disp_raw->count(), 50u);
  EXPECT_GT(w.sched.now() - start, seconds(4));
}

TEST(QosTest, RemotePathStalledOnLinkBacklogResumesWhenTheLinkDrains) {
  // 30 kB photos translate in about 12 ms but take 24 ms on the 10 Mbps
  // wire, so the link's unsent backlog passes the 64 KiB watermark and the
  // path stops taking messages into translation. Nothing but the link's
  // drain can start it again: no more emits, and the destination is remote.
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  auto disp_id = w.b->map(std::move(disp)).take();
  w.settle();
  auto path = w.a->transport()
                  .connect(PortRef{cam_id, "image-out"}, PortRef{disp_id, "image-in"})
                  .take();

  constexpr int kPhotos = 12;
  for (int i = 0; i < kPhotos; ++i) {
    Message m = jpeg_message(30000);
    m.payload[0] = static_cast<std::uint8_t>(i);
    ASSERT_TRUE(cam_raw->emit("image-out", std::move(m)).ok());
  }
  // Stalled: messages queued and none in translation (every translation
  // started has been forwarded), held for longer than two translations.
  auto translations = [&]() -> std::uint64_t {
    const obs::Snapshot snap = w.net.metrics().snapshot();
    const obs::SnapshotEntry* e = snap.find("umtp.translate_ns");
    return e == nullptr ? 0 : e->count;
  };
  const PathStats* stats = w.a->transport().stats(path);
  auto stalled = [&] {
    stats = w.a->transport().stats(path);
    return stats->buffered_bytes > 0 && translations() == stats->messages_forwarded;
  };
  sim::Duration longest{0};
  sim::TimePoint since{};
  bool was_stalled = false;
  for (int step = 0; step < 2000 && stats->messages_forwarded < kPhotos; ++step) {
    w.sched.run_for(sim::microseconds(500));
    const bool now_stalled = stalled();
    if (now_stalled && !was_stalled) since = w.sched.now();
    if (now_stalled) longest = std::max(longest, w.sched.now() - since);
    was_stalled = now_stalled;
  }
  EXPECT_GT(longest, milliseconds(25)) << "the link backlog never held the path";
  EXPECT_EQ(stats->messages_forwarded, static_cast<std::uint64_t>(kPhotos));
  EXPECT_EQ(stats->buffered_bytes, 0u);

  w.settle();
  ASSERT_EQ(disp_raw->count(), static_cast<std::size_t>(kPhotos));
  for (int i = 0; i < kPhotos; ++i) {
    EXPECT_EQ(disp_raw->received()[i].msg.payload[0], i) << "out of order at " << i;
  }
  expect_conserved(w.net, kPhotos, disp_raw->count());
}

// --- instantiation cost (Fig. 10 plumbing) -------------------------------------------------

TEST(RuntimeTest, InstantiateChargesVirtualTimeByShapeSize) {
  World w;
  w.start_all();

  auto small = make_camera("Small");                 // 1 port
  auto big = make_display("Big");                    // 2 ports
  big->set_hierarchy_entities(2);

  sim::TimePoint t0 = w.sched.now();
  sim::TimePoint small_done{}, big_done{};
  w.a->instantiate(std::move(small), [&](Result<TranslatorId> r) {
    ASSERT_TRUE(r.ok());
    small_done = w.sched.now();
  });
  w.b->instantiate(std::move(big), [&](Result<TranslatorId> r) {
    ASSERT_TRUE(r.ok());
    big_done = w.sched.now();
  });
  w.settle();

  const CostModel& costs = w.a->costs();
  EXPECT_EQ(small_done - t0, costs.instantiation_cost(1, 0));
  EXPECT_EQ(big_done - t0, costs.instantiation_cost(2, 2));
  EXPECT_GT(big_done, small_done);
  EXPECT_EQ(w.a->directory().lookup(Query().name_contains("Small")).size(), 1u);
}

TEST(RuntimeTest, StopWithdrawsEverything) {
  World w;
  w.start_all();
  auto id = w.a->map(make_camera()).take();
  w.settle();
  ASSERT_NE(w.b->directory().profile(id), nullptr);
  w.a->stop();
  w.settle();
  EXPECT_EQ(w.b->directory().profile(id), nullptr);
}

TEST(RuntimeTest, MessageLatencyIncludesTranslationCost) {
  World w;
  w.start_all();
  auto cam = make_camera();
  LambdaDevice* cam_raw = cam.get();
  auto cam_id = w.a->map(std::move(cam)).take();
  auto disp = make_display();
  CollectorDevice* disp_raw = disp.get();
  auto disp_id = w.a->map(std::move(disp)).take();
  w.settle();
  (void)w.a->transport().connect(PortRef{cam_id, "image-out"}, PortRef{disp_id, "image-in"});

  sim::TimePoint emitted = w.sched.now();
  sim::TimePoint delivered{};
  disp_raw->set_on_receive([&](const CollectorDevice::Received&) { delivered = w.sched.now(); });
  ASSERT_TRUE(cam_raw->emit("image-out", jpeg_message(2048)).ok());
  w.settle();
  EXPECT_EQ(delivered - emitted, w.a->costs().translation_cost(2048));
}

// --- the USDL translator (DESIGN.md §7.7) ------------------------------------------------

constexpr const char* kProbeUsdl = R"(<usdl><service platform="probe" match="probe:1">
  <shape>
    <digital-port name="text-out" direction="output" mime="text/plain"/>
    <digital-port name="any-out" direction="output" mime="*/*"/>
    <digital-port name="in" direction="input" mime="text/plain"/>
  </shape>
</service></usdl>)";

/// A generic translator with no native protocol; it exposes the protected
/// rules so a test can drive them, and runs `on_teardown` as its teardown.
class UsdlProbe final : public UsdlTranslator {
 public:
  using UsdlTranslator::UsdlTranslator;
  using UsdlTranslator::emit_typed;
  using UsdlTranslator::lifetime;

  Result<void> deliver(const std::string&, const Message&) override { return ok_result(); }

  std::function<void()> on_teardown;

 private:
  void teardown() override {
    if (on_teardown) on_teardown();
  }
};

UsdlService probe_usdl() {
  auto doc = parse_usdl(kProbeUsdl);
  EXPECT_TRUE(doc.ok());
  return doc.value().services.at(0);
}

TEST(UsdlTranslatorTest, EmitTypedUsesThePortTypeAndRoutesNothingOnError) {
  World w;
  w.start_all();
  const UsdlService usdl = probe_usdl();
  auto probe = std::make_unique<UsdlProbe>("Probe", usdl);
  UsdlProbe* probe_raw = probe.get();
  auto probe_id = w.a->map(std::move(probe)).take();
  auto text_sink = std::make_unique<CollectorDevice>(
      "TextSink", make_sink_shape("in", MimeType::of("text/plain")));
  auto bytes_sink = std::make_unique<CollectorDevice>(
      "BytesSink", make_sink_shape("in", MimeType::of("application/octet-stream")));
  CollectorDevice* text_raw = text_sink.get();
  CollectorDevice* bytes_raw = bytes_sink.get();
  auto text_id = w.a->map(std::move(text_sink)).take();
  auto bytes_id = w.a->map(std::move(bytes_sink)).take();
  w.settle();
  auto text_path = w.a->transport().connect(PortRef{probe_id, "text-out"}, PortRef{text_id, "in"});
  auto any_path = w.a->transport().connect(PortRef{probe_id, "any-out"}, PortRef{bytes_id, "in"});
  ASSERT_TRUE(text_path.ok());
  ASSERT_TRUE(any_path.ok());

  // A concrete port types the message as declared, whatever it carried.
  Message m = Message::text(MimeType::of("image/jpeg"), "hello");
  m.meta["k"] = "v";
  ASSERT_TRUE(probe_raw->emit_typed("text-out", std::move(m)).ok());
  // A wildcard port types it application/octet-stream.
  ASSERT_TRUE(probe_raw->emit_typed("any-out", Message::text({}, "bytes")).ok());
  // An unknown port and an input port are errors.
  Result<void> ghost = probe_raw->emit_typed("ghost", Message::text({}, "x"));
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.error().code, Errc::not_found);
  EXPECT_FALSE(probe_raw->emit_typed("in", Message::text({}, "x")).ok());
  w.settle();

  ASSERT_EQ(text_raw->count(), 1u);
  EXPECT_EQ(text_raw->received()[0].msg.type, MimeType::of("text/plain"));
  EXPECT_EQ(text_raw->received()[0].msg.body_text(), "hello");
  EXPECT_EQ(text_raw->received()[0].msg.meta.at("k"), "v");
  ASSERT_EQ(bytes_raw->count(), 1u);
  EXPECT_EQ(bytes_raw->received()[0].msg.type, MimeType::of("application/octet-stream"));
  EXPECT_EQ(w.a->transport().stats(text_path.value())->messages_forwarded, 1u);
  EXPECT_EQ(w.a->transport().stats(any_path.value())->messages_forwarded, 1u);

  // Unmapped: an error, and nothing is routed.
  UsdlProbe loose("Loose", usdl);
  Result<void> unmapped = loose.emit_typed("text-out", Message::text({}, "late"));
  ASSERT_FALSE(unmapped.ok());
  EXPECT_EQ(unmapped.error().code, Errc::internal);
  w.settle();
  EXPECT_EQ(text_raw->count(), 1u);
  EXPECT_EQ(bytes_raw->count(), 1u);
}

TEST(UsdlTranslatorTest, LifetimeEndsAtUnmapBeforeTeardown) {
  World w;
  w.start_all();
  const UsdlService usdl = probe_usdl();
  auto probe = std::make_unique<UsdlProbe>("Probe", usdl);
  UsdlProbe* probe_raw = probe.get();
  auto id = w.a->map(std::move(probe)).take();
  int runs = 0;
  auto guarded = probe_raw->lifetime().guard([&runs]() { ++runs; });
  // Scheduled before the unmap, due after it.
  w.sched.schedule_after(seconds(1), probe_raw->lifetime().guard([&runs]() { runs += 100; }));
  guarded();  // mapped: a guarded callback runs
  ASSERT_EQ(runs, 1);
  int runs_in_teardown = -1;
  probe_raw->on_teardown = [&]() {
    guarded();  // the lifetime already ended when the platform's teardown runs
    runs_in_teardown = runs;
  };
  ASSERT_TRUE(w.a->unmap(id).ok());
  EXPECT_EQ(runs_in_teardown, 1);
  w.settle();
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace umiddle::core
