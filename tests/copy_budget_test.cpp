// Copy and allocation budgets of the message paths (DESIGN.md §8.4). This
// binary replaces the global operator new with a counting one and pins:
//   * how many large heap blocks (16 KiB or more, so only photo-sized buffers
//     count) one 30 kB photo costs over the real Fig. 5 pipeline: BT camera →
//     runtime A → UMTP → runtime B → UPnP SOAP → TV. A photo is copied only
//     where its bytes change form;
//   * how many heap blocks of any size one message costs on the Fig. 11
//     MediaBroker echo and on a remote UMTP DATA path. A frame is built in one
//     buffer of its exact size;
//   * how many heap blocks one Runtime::map costs with its first announce,
//     which is written in one pass without an element tree (DESIGN.md §8.3).
// A reintroduced copy, a regrowing encoder or a tree on the announce path
// raises a count and fails a test by name.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "bluetooth/bip.hpp"
#include "bluetooth/mapper.hpp"
#include "core/native_device.hpp"
#include "core/umiddle.hpp"
#include "mediabroker/client.hpp"
#include "mediabroker/mapper.hpp"
#include "netsim/fault.hpp"
#include "upnp/devices.hpp"
#include "upnp/mapper.hpp"

namespace {

constexpr std::size_t kLarge = 16 * 1024;
bool g_counting = false;
std::size_t g_large = 0;
std::size_t g_all = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) {
    ++g_all;
    if (n >= kLarge) ++g_large;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The replaceable allocation functions. The aligned overloads keep the
// library's versions, which nothing on the measured paths uses.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace umiddle {
namespace {

using sim::seconds;

/// Large allocations per photo, each where the bytes change form: the OBEX
/// push's copy of the camera's current image, the PUT packet, the sink's
/// reassembly buffer and decoded body, the UMTP frame, the receiving link's
/// reassembly buffer and the decoded payload, the base64 text, the SOAP
/// envelope, the HTTP request, the device's reassembly buffer and request
/// body, the parsed argument text, and the TV's decoded image. Each
/// reassembly buffer is reserved once at its frame's length. 23 before the
/// hand-offs moved, 15 while the readers regrew their buffers.
constexpr double kLargeAllocsPerPhoto = 14.0;

/// Figure 5: the camera on runtime A's piconet, the TV on runtime B's LAN.
struct PhotoPath {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  std::unique_ptr<bt::BluetoothMedium> piconet;
  std::unique_ptr<bt::BipCamera> camera;
  std::unique_ptr<upnp::MediaRendererTv> tv;
  core::UsdlLibrary library;
  std::unique_ptr<core::Runtime> a;
  std::unique_ptr<core::Runtime> b;

  PhotoPath() {
    const net::SegmentId lan = net.add_segment(net::SegmentSpec{});
    for (const char* h : {"living-room", "media-cabinet", "tv-host"}) {
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
    a = std::make_unique<core::Runtime>(sched, net, "living-room");
    a->add_mapper(std::make_unique<bt::BtMapper>(*piconet, library));
    b = std::make_unique<core::Runtime>(sched, net, "media-cabinet");
    b->add_mapper(std::make_unique<upnp::UpnpMapper>(library));
    EXPECT_TRUE(a->start().ok());
    EXPECT_TRUE(b->start().ok());
    sched.run_for(seconds(4));
    auto cameras = a->directory().lookup(core::Query().digital_output(MimeType::of("image/*")));
    EXPECT_EQ(cameras.size(), 1u);
    if (cameras.empty()) return;
    EXPECT_TRUE(a->transport()
                    .connect(core::PortRef{cameras[0].id, "image-out"},
                             core::Query().digital_input(MimeType::of("image/*")).platform("upnp"))
                    .ok());
  }

  /// Shoot one photo and run until the TV has rendered it.
  bool photo(Bytes image, const std::string& name) {
    const std::size_t before = tv->rendered().size();
    camera->shutter(std::move(image), name);
    const sim::TimePoint deadline = sched.now() + seconds(30);
    while (tv->rendered().size() == before && sched.now() < deadline && sched.step()) {
    }
    return tv->rendered().size() == before + 1 && tv->rendered().back().name == name;
  }
};

TEST(CopyBudgetTest, CameraToTvPhotoStaysWithinItsLargeAllocationBudget) {
  PhotoPath w;
  // The warm-up photo brings the UMTP link and the TV's HTTP session up.
  ASSERT_TRUE(w.photo(Bytes(30000, 0xD8), "warmup.jpg"));

  constexpr int kPhotos = 8;
  std::size_t large = 0;
  for (int i = 0; i < kPhotos; ++i) {
    Bytes image(30000 + static_cast<std::size_t>(i) * 64);
    for (std::size_t j = 0; j < image.size(); ++j) {
      image[j] = static_cast<std::uint8_t>(j * 131 + static_cast<std::size_t>(i));
    }
    const std::string name = "photo-" + std::to_string(i) + ".jpg";
    g_large = 0;
    g_counting = true;
    const bool rendered = w.photo(std::move(image), name);
    g_counting = false;
    ASSERT_TRUE(rendered) << name;
    EXPECT_EQ(w.tv->rendered().back().bytes, 30000 + static_cast<std::size_t>(i) * 64);
    large += g_large;
  }
  const double per_photo = static_cast<double>(large) / kPhotos;
  RecordProperty("large_allocs_per_photo", std::to_string(per_photo));
  EXPECT_LE(per_photo, kLargeAllocsPerPhoto)
      << "a camera→TV photo made " << per_photo << " heap allocations of 16 KiB or more; "
      << "the budget is " << kLargeAllocsPerPhoto
      << ". A new whole-photo copy on the path? (DESIGN.md §8.4)";
}

/// Heap allocations per message over `count` messages that `one(i, start)`
/// sends and runs to delivery, after `warmup` uncounted ones. `one` builds
/// its message, then calls `start()`, which opens the counting window.
template <typename One>
double allocations_per_message(int warmup, int count, One one) {
  for (int i = 0; i < warmup; ++i) {
    if (!one(i, [] {})) return -1;
  }
  std::size_t all = 0;
  for (int i = warmup; i < warmup + count; ++i) {
    g_all = 0;
    const bool delivered = one(i, [] { g_counting = true; });
    g_counting = false;
    if (!delivered) return -1;
    all += g_all;
  }
  return static_cast<double>(all) / count;
}

/// Heap allocations per echoed 1400-byte message on the Fig. 11 MediaBroker
/// echo. Four MB frames cross per echo (producer → broker → runtime's MB
/// translator → broker → consumer). The two the broker receives cost two
/// each: the frame's bytes, kept as they arrived and forwarded, and the
/// stream's shared-payload block. The two the clients send cost three: the
/// wire buffer, the shared-payload block and the decoded payload at the far
/// end. The translator's routed message is the eleventh; new blocks of the
/// queues' std::deques and growth of the tracer's span vector add the rest.
/// 13.3 while the broker decoded each DATA frame and encoded it again; 41.3
/// when each frame grew its buffer from empty, each received chunk built a
/// frame vector, the translator copied the payload it was handed and the
/// broker copied its forward per consumer.
constexpr double kAllocsPerMbEcho = 11.5;

/// Heap allocations per 1400-byte message on a remote UMTP DATA path between
/// two runtimes: the routed message, the DATA frame, the stream's
/// shared-payload block and the decoded payload; new blocks of the queues'
/// std::deques (the tracer's per-link baggage queue among them) and growth
/// of the tracer's span vector add the rest. 18.3 when the DATA frame grew
/// its buffer from empty, its MIME text was copied into a string and each
/// received chunk built a frame vector; 7.3 while the tracer erased a
/// link's emptied baggage queue, so each DATA frame rebuilt it.
constexpr double kAllocsPerUmtpData = 4.5;

TEST(CopyBudgetTest, MbEchoStaysWithinItsAllocationBudget) {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentSpec spec;
  spec.bandwidth_bps = 10e6;
  spec.shared_medium = true;
  const net::SegmentId hub = net.add_segment(spec);
  for (const char* h : {"node1", "node2"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, hub).ok());
  }
  mb::MbServer server(net, "node1");
  ASSERT_TRUE(server.start().ok());
  core::UsdlLibrary library;
  mb::register_mb_usdl(library);
  core::Runtime runtime(sched, net, "node2");
  runtime.add_mapper(std::make_unique<mb::MbMapper>(server.endpoint(), library));
  ASSERT_TRUE(runtime.start().ok());
  mb::MbClient producer(net, "node1", server.endpoint());
  mb::MbClient consumer(net, "node1", server.endpoint());
  ASSERT_TRUE(producer.connect().ok());
  ASSERT_TRUE(consumer.connect().ok());
  ASSERT_TRUE(producer.produce("bench", "application/octet-stream").ok());
  sched.run_for(seconds(6));
  auto found = runtime.directory().lookup(core::Query().platform("mb"));
  ASSERT_EQ(found.size(), 1u);
  const TranslatorId id = found.front().id;
  ASSERT_TRUE(runtime.transport()
                  .connect(core::PortRef{id, "media-out"}, core::PortRef{id, "media-in"})
                  .ok());
  std::size_t echoed = 0;
  consumer.on_data([&echoed](const std::string&, const Bytes& payload) {
    if (payload.size() == 1400) ++echoed;
  });
  ASSERT_TRUE(consumer.consume("bench-out").ok());
  sched.run_for(seconds(1));

  const double per_echo = allocations_per_message(20, 200, [&](int i, auto start) {
    Bytes msg(1400, static_cast<std::uint8_t>(i));
    const std::size_t before = echoed;
    start();
    if (!producer.send("bench", std::move(msg)).ok()) return false;
    const sim::TimePoint deadline = sched.now() + seconds(1);
    while (echoed == before && sched.now() < deadline && sched.step()) {
    }
    return echoed == before + 1;
  });
  ASSERT_GE(per_echo, 0) << "an echo did not arrive";
  RecordProperty("allocs_per_mb_echo", std::to_string(per_echo));
  EXPECT_LE(per_echo, kAllocsPerMbEcho)
      << "an MB echo made " << per_echo << " heap allocations; the budget is "
      << kAllocsPerMbEcho << ". A frame encoder regrowing its buffer, or a payload copy "
      << "on the MB hop? (DESIGN.md §8.4)";
}

TEST(CopyBudgetTest, RemoteUmtpDataStaysWithinItsAllocationBudget) {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  const net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* h : {"node-a", "node-b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime a(sched, net, "node-a");
  core::Runtime b(sched, net, "node-b");
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start().ok());
  const MimeType octets = MimeType::of("application/octet-stream");
  auto source = std::make_unique<core::LambdaDevice>("src", core::make_source_shape("out", octets));
  core::LambdaDevice* src = source.get();
  auto src_id = a.map(std::move(source));
  ASSERT_TRUE(src_id.ok());
  std::size_t delivered = 0;
  auto sink_id = b.map(std::make_unique<core::LambdaDevice>(
      "sink", core::make_sink_shape("in", octets),
      [&delivered](const std::string&, const core::Message& msg) {
        if (msg.payload.size() == 1400) ++delivered;
        return ok_result();
      }));
  ASSERT_TRUE(sink_id.ok());
  sched.run_for(seconds(2));
  ASSERT_TRUE(a.transport()
                  .connect(core::PortRef{src_id.value(), "out"},
                           core::PortRef{sink_id.value(), "in"})
                  .ok());

  const double per_message = allocations_per_message(20, 200, [&](int i, auto start) {
    core::Message msg;
    msg.type = octets;
    msg.payload.assign(1400, static_cast<std::uint8_t>(i));
    const std::size_t before = delivered;
    start();
    if (!src->emit("out", std::move(msg)).ok()) return false;
    const sim::TimePoint deadline = sched.now() + seconds(1);
    while (delivered == before && sched.now() < deadline && sched.step()) {
    }
    return delivered == before + 1;
  });
  ASSERT_GE(per_message, 0) << "a message was not delivered";
  RecordProperty("allocs_per_umtp_data", std::to_string(per_message));
  EXPECT_LE(per_message, kAllocsPerUmtpData)
      << "a remote UMTP DATA message made " << per_message << " heap allocations; the budget is "
      << kAllocsPerUmtpData << ". A frame encoder regrowing its buffer, or a copy on the "
      << "UMTP path? (DESIGN.md §8.4)";
}

/// Heap allocations per replayed DATA frame when a cut LAN heals under a
/// burst of 1400-byte messages: from the cut to the last delivery, over the
/// frames the sender replays. Each replay costs six: the SEQ frame and its
/// shared-payload block, the receiving stream's chunk, its shared block and
/// the reader's reassembly buffer, and the decoded payload. The burst's
/// frames sent after the reconnect, the reconnect itself, its RESUME and
/// ACK and the recovery counters add the rest. 10.3 while the reader kept a
/// SEQ's inner body as a copy of its bytes and decoded it into a frame it
/// threw away, and the transport decoded it again to deliver it.
constexpr double kAllocsPerReplayedData = 8.5;

TEST(CopyBudgetTest, ReplayedUmtpDataStaysWithinItsAllocationBudget) {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentSpec spec;
  spec.bandwidth_bps = 1e6;  // a 1400-byte frame serializes for about 11 ms
  spec.latency = sim::milliseconds(1);
  const net::SegmentId lan = net.add_segment(spec);
  for (const char* h : {"node-a", "node-b"}) {
    ASSERT_TRUE(net.add_host(h).ok());
    ASSERT_TRUE(net.attach(h, lan).ok());
  }
  core::Runtime a(sched, net, "node-a");
  core::Runtime b(sched, net, "node-b");
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start().ok());
  const MimeType octets = MimeType::of("application/octet-stream");
  auto source = std::make_unique<core::LambdaDevice>("src", core::make_source_shape("out", octets));
  core::LambdaDevice* src = source.get();
  auto src_id = a.map(std::move(source));
  ASSERT_TRUE(src_id.ok());
  std::size_t delivered = 0;
  auto sink_id = b.map(std::make_unique<core::LambdaDevice>(
      "sink", core::make_sink_shape("in", octets),
      [&delivered](const std::string&, const core::Message& msg) {
        if (msg.payload.size() == 1400) ++delivered;
        return ok_result();
      }));
  ASSERT_TRUE(sink_id.ok());
  sched.run_for(seconds(2));
  ASSERT_TRUE(a.transport()
                  .connect(core::PortRef{src_id.value(), "out"},
                           core::PortRef{sink_id.value(), "in"})
                  .ok());
  auto emit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      core::Message msg;
      msg.type = octets;
      msg.payload.assign(1400, static_cast<std::uint8_t>(i));
      if (!src->emit("out", std::move(msg)).ok()) return false;
    }
    return true;
  };
  ASSERT_TRUE(emit(20));  // warm-up, delivered before the cut
  sched.run_for(seconds(2));
  ASSERT_EQ(delivered, 20u);

  // 50 ms into a burst of 40, most of it is queued on the stream or on the
  // medium: lost with the reset stream, and replayed once the LAN heals.
  constexpr int kBurst = 40;
  ASSERT_TRUE(emit(kBurst));
  const sim::TimePoint t0 = sched.now() + sim::milliseconds(50);
  net.faults().cut(lan, t0, t0 + seconds(1));
  sched.run_for(sim::milliseconds(50));
  g_all = 0;
  g_counting = true;
  const sim::TimePoint deadline = sched.now() + seconds(30);
  while (delivered < 20u + kBurst && sched.now() < deadline && sched.step()) {
  }
  g_counting = false;
  ASSERT_EQ(delivered, 20u + kBurst);
  auto snap = net.metrics().snapshot();
  const obs::SnapshotEntry* replays = snap.find("recovery.replays");
  ASSERT_NE(replays, nullptr);
  ASSERT_GE(replays->count, 20u) << "the cut should catch most of the burst in flight";
  const double per_replay = static_cast<double>(g_all) / static_cast<double>(replays->count);
  RecordProperty("allocs_per_replayed_data", std::to_string(per_replay));
  EXPECT_LE(per_replay, kAllocsPerReplayedData)
      << "a replayed UMTP DATA frame made " << per_replay << " heap allocations over "
      << replays->count << " replays; the budget is " << kAllocsPerReplayedData
      << ". A second decode or a body copy on the replay path? (DESIGN.md §8.4)";
}

/// Heap allocations of one Runtime::map of a three-port translator on a
/// started runtime, its first announce included (Ablation A's per-translator
/// cost): the runtime's translator record, the directory's copy of the
/// profile's ports, its table entry and listener snapshot, and the announce's
/// text, its payload bytes and their shared block. 31 while the advert was
/// built as an element tree and then serialized, its MIME types as strings.
constexpr double kAllocsPerFirstAnnounce = 7.5;

TEST(CopyBudgetTest, FirstAnnounceStaysWithinItsAllocationBudget) {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  const net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  ASSERT_TRUE(net.add_host("node").ok());
  ASSERT_TRUE(net.attach("node", lan).ok());
  core::Runtime runtime(sched, net, "node");
  ASSERT_TRUE(runtime.start().ok());
  sched.run_for(seconds(1));
  const MimeType octets = MimeType::of("application/octet-stream");

  const double per_map = allocations_per_message(20, 200, [&](int i, auto start) {
    core::Shape shape;
    for (int p = 0; p < 3; ++p) {
      const core::Direction dir = p % 2 == 0 ? core::Direction::input : core::Direction::output;
      if (!shape.add({"p" + std::to_string(p), core::PortKind::digital, dir, octets, ""}).ok()) {
        return false;
      }
    }
    auto device = std::make_unique<core::LambdaDevice>("t" + std::to_string(i), std::move(shape));
    sched.run_for(sim::milliseconds(100));  // the last advert delivered, outside the window
    start();
    return runtime.map(std::move(device)).ok();
  });
  ASSERT_GE(per_map, 0) << "a map failed";
  RecordProperty("allocs_per_first_announce", std::to_string(per_map));
  EXPECT_LE(per_map, kAllocsPerFirstAnnounce)
      << "a Runtime::map made " << per_map << " heap allocations; the budget is "
      << kAllocsPerFirstAnnounce << ". An XML tree or a copy back on the announce path? "
      << "(DESIGN.md §8.3)";
}

}  // namespace
}  // namespace umiddle
