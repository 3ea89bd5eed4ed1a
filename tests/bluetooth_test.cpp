// Tests for the Bluetooth substrate: medium/piconet, SDP, OBEX codec and
// sessions, BIP camera/printer, HIDP mouse, and the full mapper pipeline
// (discovery → SDP → USDL translator → OBEX/HIDP bridging).
#include <gtest/gtest.h>

#include "bluetooth/bip.hpp"
#include "bluetooth/hidp.hpp"
#include "bluetooth/mapper.hpp"
#include "bluetooth/obex.hpp"
#include "bluetooth/sdp.hpp"
#include "common/rand.hpp"
#include "core/umiddle.hpp"

namespace umiddle::bt {
namespace {

using sim::milliseconds;
using sim::seconds;

struct Fixture {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  BluetoothMedium medium{net};

  void add_plain_host(const std::string& name) {
    ASSERT_TRUE(net.add_host(name).ok());
    ASSERT_TRUE(medium.attach_host(name).ok());
  }
};

// --- medium / piconet ----------------------------------------------------------------

TEST(BtMediumTest, PowerOnRegistersAndNotifies) {
  Fixture f;
  std::vector<std::string> seen;
  f.medium.add_device_listener([&](const BtDeviceInfo& d) { seen.push_back(d.name); });

  HidMouse mouse(f.medium, "Mouse A");
  ASSERT_TRUE(mouse.power_on().ok());
  EXPECT_EQ(seen, std::vector<std::string>{"Mouse A"});
  EXPECT_EQ(f.medium.devices_in_range().size(), 1u);

  // Listener added later sees already-on devices immediately.
  std::vector<std::string> late;
  f.medium.add_device_listener([&](const BtDeviceInfo& d) { late.push_back(d.name); });
  EXPECT_EQ(late, std::vector<std::string>{"Mouse A"});

  std::vector<std::string> gone;
  f.medium.add_device_gone_listener([&](const BtDeviceInfo& d) { gone.push_back(d.name); });
  mouse.power_off();
  EXPECT_EQ(gone, std::vector<std::string>{"Mouse A"});
  EXPECT_TRUE(f.medium.devices_in_range().empty());
}

TEST(BtMediumTest, InquiryTakesScanInterval) {
  Fixture f;
  HidMouse mouse(f.medium);
  ASSERT_TRUE(mouse.power_on().ok());
  std::vector<BtDeviceInfo> found;
  f.medium.inquiry([&](std::vector<BtDeviceInfo> d) { found = std::move(d); }, seconds(2));
  f.sched.run_for(seconds(1));
  EXPECT_TRUE(found.empty());  // still scanning
  f.sched.run_for(seconds(2));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].address, mouse.address());
}

TEST(BtMediumTest, ConnectToUnknownAddressFails) {
  Fixture f;
  f.add_plain_host("hostX");
  auto r = f.medium.l2cap_connect("hostX", 0xDEAD, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
}

TEST(BtMediumTest, PiconetLimitOfSevenActiveLinks) {
  Fixture f;
  HidMouse mouse(f.medium);
  ASSERT_TRUE(mouse.power_on().ok());
  // Eight hosts try to open the interrupt channel; the eighth is refused.
  std::vector<net::StreamPtr> held;
  for (int i = 0; i < 7; ++i) {
    std::string host = "host" + std::to_string(i);
    f.add_plain_host(host);
    auto s = f.medium.l2cap_connect(host, mouse.address(), kPsmHidInterrupt);
    ASSERT_TRUE(s.ok()) << i;
    held.push_back(s.value());
  }
  f.add_plain_host("host7");
  auto refused = f.medium.l2cap_connect("host7", mouse.address(), kPsmHidInterrupt);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::refused);

  // Closing a link frees a slot.
  held[0]->close();
  f.sched.run();
  EXPECT_EQ(f.medium.active_links(mouse.address()), 6);
  EXPECT_TRUE(f.medium.l2cap_connect("host7", mouse.address(), kPsmHidInterrupt).ok());
}

// --- SDP --------------------------------------------------------------------------------

TEST(SdpTest, QueryAllAndByUuid) {
  Fixture f;
  f.add_plain_host("adapter");
  BipCamera camera(f.medium, "Cam");
  ASSERT_TRUE(camera.power_on().ok());

  std::vector<SdpRecord> all;
  sdp_query(f.medium, "adapter", camera.address(), "*",
            [&](Result<std::vector<SdpRecord>> r) {
              ASSERT_TRUE(r.ok());
              all = std::move(r).take();
            });
  f.sched.run();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].service_uuid, kUuidImagingResponder);
  EXPECT_EQ(all[0].psm, kPsmObexBip);
  EXPECT_EQ(all[0].profile, "BIP");

  std::vector<SdpRecord> none;
  bool got_none = false;
  sdp_query(f.medium, "adapter", camera.address(), "0xFFFF",
            [&](Result<std::vector<SdpRecord>> r) {
              ASSERT_TRUE(r.ok());
              none = std::move(r).take();
              got_none = true;
            });
  f.sched.run();
  EXPECT_TRUE(got_none);
  EXPECT_TRUE(none.empty());
}

TEST(SdpTest, RecordCodecRoundTrip) {
  SdpRecord rec{42, "0x1124", "HID Mouse", 0x13, "HID"};
  ByteWriter w;
  rec.encode(w);
  ByteReader r(w.data());
  const SdpRecord back = SdpRecord::decode(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back.handle, 42u);
  EXPECT_EQ(back.service_uuid, "0x1124");
  EXPECT_EQ(back.name, "HID Mouse");
  EXPECT_EQ(back.psm, 0x13);
  EXPECT_EQ(back.profile, "HID");
}

// --- OBEX codec -----------------------------------------------------------------------------

TEST(ObexTest, PacketRoundTrip) {
  obex::Packet p;
  p.opcode = obex::kOpPutFinal;
  p.headers.push_back(obex::Header::text(obex::kHdrName, "dsc001.jpg"));
  p.headers.push_back(obex::Header::bytes(obex::kHdrType, to_bytes(kTypeImage)));
  p.headers.push_back(obex::Header::u32(obex::kHdrLength, 3));
  p.headers.push_back(obex::Header::bytes(obex::kHdrEndOfBody, {1, 2, 3}));

  auto back = obex::decode(p.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().opcode, obex::kOpPutFinal);
  EXPECT_EQ(back.value().text(obex::kHdrName), "dsc001.jpg");
  EXPECT_EQ(back.value().text(obex::kHdrType), kTypeImage);
  EXPECT_EQ(back.value().body(), (Bytes{1, 2, 3}));
  ASSERT_NE(back.value().header(obex::kHdrLength), nullptr);
  EXPECT_EQ(std::get<std::uint32_t>(back.value().header(obex::kHdrLength)->value), 3u);
}

TEST(ObexTest, ConnectCarriesMaxPacket) {
  obex::Packet p;
  p.opcode = obex::kOpConnect;
  p.max_packet = 0x2000;
  auto back = obex::decode(p.encode());
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back.value().max_packet.has_value());
  EXPECT_EQ(*back.value().max_packet, 0x2000);
}

TEST(ObexTest, DecodeRejectsBadLength) {
  Bytes wire = {obex::kOpPut, 0x00, 0x09, 0x01};  // claims 9, has 4
  EXPECT_FALSE(obex::decode(wire).ok());
}

TEST(ObexTest, AssemblerReassemblesSplitPackets) {
  obex::Packet p;
  p.opcode = obex::kOpPutFinal;
  p.headers.push_back(obex::Header::bytes(obex::kHdrEndOfBody, Bytes(500, 0x7)));
  Bytes wire = p.encode();
  Bytes twice = wire;
  twice.insert(twice.end(), wire.begin(), wire.end());

  obex::PacketReader reader;
  std::vector<obex::Packet> out;
  for (std::size_t i = 0; i < twice.size(); i += 7) {
    std::size_t n = std::min<std::size_t>(7, twice.size() - i);
    ASSERT_TRUE(reader.feed(std::span(twice).subspan(i, n), out).ok());
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].body().size(), 500u);
}

// Property: random packets survive encode → decode.
class ObexRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObexRoundTripTest, RandomPackets) {
  Rng rng(GetParam());
  obex::Packet p;
  p.opcode = obex::kOpPut;
  if (rng.chance(0.5)) p.headers.push_back(obex::Header::text(obex::kHdrName, rng.ident(12)));
  Bytes body(rng.below(2000));
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
  p.headers.push_back(obex::Header::bytes(obex::kHdrBody, body));
  p.headers.push_back(obex::Header::u32(obex::kHdrConnectionId,
                                        static_cast<std::uint32_t>(rng.next())));
  auto back = obex::decode(p.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().body(), body);
  EXPECT_EQ(back.value().headers.size(), p.headers.size());
}

INSTANTIATE_TEST_SUITE_P(Random, ObexRoundTripTest,
                         ::testing::Values(7, 14, 21, 28, 35, 42, 49, 56));

// --- OBEX sessions over the radio -------------------------------------------------------------

TEST(ObexSessionTest, PutTransfersLargeObject) {
  Fixture f;
  f.add_plain_host("client");
  BipPrinter printer(f.medium);
  ASSERT_TRUE(printer.power_on().ok());

  Bytes image(100 * 1000);
  for (std::size_t i = 0; i < image.size(); ++i) image[i] = static_cast<std::uint8_t>(i);
  auto stream = f.medium.l2cap_connect("client", printer.address(), kPsmObexBip);
  ASSERT_TRUE(stream.ok());
  bool done = false;
  obex::Client::put(stream.value(), obex::Object{"big.jpg", kTypeImage, image},
                    [&](Result<void> r) {
                      ASSERT_TRUE(r.ok()) << r.error().to_string();
                      done = true;
                    });
  f.sched.run();
  ASSERT_TRUE(done);
  ASSERT_EQ(printer.printed().size(), 1u);
  EXPECT_EQ(printer.printed()[0].name, "big.jpg");
  EXPECT_EQ(printer.printed()[0].bytes, image.size());
  // 100 kB over a 723 kbps radio ≥ 1.1 s of virtual time.
  EXPECT_GT(f.sched.now(), sim::milliseconds(1100));
}

TEST(ObexSessionTest, GetFetchesCurrentImage) {
  Fixture f;
  f.add_plain_host("client");
  BipCamera camera(f.medium);
  ASSERT_TRUE(camera.power_on().ok());
  camera.shutter(Bytes(50000, 0xAB), "snap.jpg");

  auto stream = f.medium.l2cap_connect("client", camera.address(), kPsmObexBip);
  ASSERT_TRUE(stream.ok());
  obex::Object got;
  bool done = false;
  obex::Client::get(stream.value(), kTypeImage, "", [&](Result<obex::Object> r) {
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    got = std::move(r).take();
    done = true;
  });
  f.sched.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.name, "snap.jpg");
  EXPECT_EQ(got.data.size(), 50000u);
  EXPECT_EQ(got.data[17], 0xAB);
}

TEST(ObexSessionTest, GetWithoutImageFails) {
  Fixture f;
  f.add_plain_host("client");
  BipCamera camera(f.medium);
  ASSERT_TRUE(camera.power_on().ok());
  auto stream = f.medium.l2cap_connect("client", camera.address(), kPsmObexBip);
  ASSERT_TRUE(stream.ok());
  bool failed = false;
  obex::Client::get(stream.value(), kTypeImage, "", [&](Result<obex::Object> r) {
    EXPECT_FALSE(r.ok());
    failed = true;
  });
  f.sched.run();
  EXPECT_TRUE(failed);
}

// --- HIDP ------------------------------------------------------------------------------------------

TEST(HidpTest, ReportCodec) {
  MouseReport r{1, -5, 7, 0};
  auto back = MouseReport::decode(r.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().buttons, 1);
  EXPECT_EQ(back.value().dx, -5);
  EXPECT_EQ(back.value().dy, 7);
  EXPECT_FALSE(MouseReport::decode(Bytes{0xA1, 0, 0}).ok());
  EXPECT_FALSE(MouseReport::decode(Bytes{0x00, 0, 0, 0, 0}).ok());
}

TEST(HidpTest, ReportsReachConnectedHosts) {
  Fixture f;
  f.add_plain_host("hostA");
  HidMouse mouse(f.medium);
  ASSERT_TRUE(mouse.power_on().ok());
  auto channel = f.medium.l2cap_connect("hostA", mouse.address(), kPsmHidInterrupt);
  ASSERT_TRUE(channel.ok());
  Bytes received;
  channel.value()->on_data([&](std::span<const std::uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  f.sched.run();
  ASSERT_EQ(mouse.open_channels(), 1u);

  mouse.click();          // press + release = 2 reports
  mouse.move(3, -4);      // 1 report
  f.sched.run();
  EXPECT_EQ(mouse.reports_sent(), 3u);
  ASSERT_EQ(received.size(), 15u);
  auto first = MouseReport::decode(std::span(received).subspan(0, 5));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().buttons, 1);
}

// --- mapper pipeline -----------------------------------------------------------------------------------

struct MapperWorld : Fixture {
  net::SegmentId lan;
  core::UsdlLibrary library;
  std::unique_ptr<core::Runtime> runtime;

  MapperWorld() {
    lan = net.add_segment(net::SegmentSpec{});
    EXPECT_TRUE(net.add_host("umnode").ok());
    EXPECT_TRUE(net.attach("umnode", lan).ok());
    register_bt_usdl(library);
    runtime = std::make_unique<core::Runtime>(sched, net, "umnode");
    runtime->add_mapper(std::make_unique<BtMapper>(medium, library));
  }
};

TEST(BtMapperTest, MapsCameraWithExpectedShape) {
  MapperWorld w;
  BipCamera camera(w.medium, "Holiday Camera");
  ASSERT_TRUE(camera.power_on().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(2));

  auto profiles = w.runtime->directory().lookup(core::Query().platform("bluetooth"));
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].name, "Holiday Camera");
  EXPECT_EQ(profiles[0].device_type, kUuidImagingResponder);
  EXPECT_NE(profiles[0].shape.find("capture"), nullptr);
  EXPECT_NE(profiles[0].shape.find("image-out"), nullptr);
  // The camera learned its push target during import.
  EXPECT_TRUE(camera.has_push_target());
}

TEST(BtMapperTest, CameraPushFlowsToUmiddlePort) {
  MapperWorld w;
  BipCamera camera(w.medium);
  ASSERT_TRUE(camera.power_on().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(2));

  auto cams = w.runtime->directory().lookup(
      core::Query().digital_output(MimeType::of("image/jpeg")));
  ASSERT_EQ(cams.size(), 1u);
  auto sink = std::make_unique<core::CollectorDevice>(
      "Album", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{cams[0].id, "image-out"}, core::PortRef{sink_id, "in"})
                  .ok());

  camera.shutter(Bytes(20000, 0x42), "push.jpg");
  w.sched.run_for(seconds(2));
  ASSERT_EQ(sink_raw->count(), 1u);
  EXPECT_EQ(sink_raw->received()[0].msg.payload.size(), 20000u);
  EXPECT_EQ(sink_raw->received()[0].msg.meta.at("filename"), "push.jpg");
}

TEST(BtMapperTest, CapturePullFetchesImage) {
  MapperWorld w;
  BipCamera camera(w.medium);
  ASSERT_TRUE(camera.power_on().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(2));
  camera.shutter(Bytes(8000, 0x11), "pull.jpg");
  w.sched.run_for(seconds(2));

  auto cams = w.runtime->directory().lookup(core::Query().platform("bluetooth"));
  ASSERT_EQ(cams.size(), 1u);
  auto sink = std::make_unique<core::CollectorDevice>(
      "Viewer", core::make_sink_shape("in", MimeType::of("image/jpeg")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{cams[0].id, "image-out"}, core::PortRef{sink_id, "in"})
                  .ok());

  core::Translator* t = w.runtime->translator(cams[0].id);
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(
      t->deliver("capture",
                 core::Message::text(MimeType::of("application/x-capture-request"), ""))
          .ok());
  w.sched.run_for(seconds(2));
  ASSERT_EQ(sink_raw->count(), 1u);
  EXPECT_EQ(sink_raw->received()[0].msg.payload.size(), 8000u);
}

TEST(BtMapperTest, MouseEventsBecomeVmlMessages) {
  MapperWorld w;
  HidMouse mouse(w.medium);
  ASSERT_TRUE(mouse.power_on().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(2));

  auto mice = w.runtime->directory().lookup(core::Query().platform("bluetooth"));
  ASSERT_EQ(mice.size(), 1u);
  EXPECT_EQ(mice[0].device_type, kUuidHid);

  auto sink = std::make_unique<core::CollectorDevice>(
      "EventLog", core::make_sink_shape("in", MimeType::of("application/vml+xml")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{mice[0].id, "pointer-out"},
                           core::PortRef{sink_id, "in"})
                  .ok());

  ASSERT_EQ(mouse.open_channels(), 1u);  // translator opened the interrupt channel
  mouse.click();
  w.sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 2u);  // press + release
  std::string doc = sink_raw->received()[0].msg.body_text();
  EXPECT_NE(doc.find("<vml"), std::string::npos);
  EXPECT_NE(doc.find("type=\"button\""), std::string::npos);
  EXPECT_NE(sink_raw->received()[1].msg.body_text().find("type=\"move\""), std::string::npos);
}

TEST(BtMapperTest, PrinterBridgesPaperExample) {
  // §3.3's printer: a translator with a digital input and a visible/paper
  // physical output; printing = OBEX PUT through the translator.
  MapperWorld w;
  BipPrinter printer(w.medium);
  ASSERT_TRUE(printer.power_on().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(2));

  auto printers = w.runtime->directory().lookup(
      core::Query().physical_output(MimeType::of("visible/paper")));
  ASSERT_EQ(printers.size(), 1u);

  core::Translator* t = w.runtime->translator(printers[0].id);
  core::Message doc;
  doc.type = MimeType::of("image/png");
  doc.payload = Bytes(5000, 0x33);
  doc.meta["filename"] = "report.png";
  ASSERT_TRUE(t->deliver("image-in", doc).ok());
  w.sched.run_for(seconds(2));
  ASSERT_EQ(printer.printed().size(), 1u);
  EXPECT_EQ(printer.printed()[0].name, "report.png");
  EXPECT_EQ(printer.printed()[0].bytes, 5000u);
}

TEST(BtMapperTest, PowerOffUnmapsTranslator) {
  MapperWorld w;
  BipCamera camera(w.medium);
  ASSERT_TRUE(camera.power_on().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(2));
  ASSERT_EQ(w.runtime->directory().lookup(core::Query().platform("bluetooth")).size(), 1u);

  camera.power_off();
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.runtime->directory().lookup(core::Query().platform("bluetooth")).size(), 0u);
}

TEST(BtMapperTest, UnknownServiceUuidIgnored) {
  MapperWorld w;
  // A bare device advertising an unknown service.
  class OddDevice : public BtDevice {
   public:
    explicit OddDevice(BluetoothMedium& m) : BtDevice(m, "Odd", 0) {
      records_.push_back(SdpRecord{1, "0xFFFF", "Mystery", 0x30, "???"});
    }
   protected:
    Result<void> on_power_on() override { return start_sdp_server(*this, &records_); }
   private:
    std::vector<SdpRecord> records_;
  };
  OddDevice odd(w.medium);
  ASSERT_TRUE(odd.power_on().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(2));
  EXPECT_EQ(w.runtime->directory().lookup(core::Query().platform("bluetooth")).size(), 0u);
}

}  // namespace
}  // namespace umiddle::bt
