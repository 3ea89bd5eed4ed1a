// Serial native calls (DESIGN.md §7.7): a platform translator makes one native
// call at a time, in delivery order, however its messages arrive. A peer's
// DATA frame reaches Translator::deliver without a ready() check, so each row
// delivers three messages back to back, as such frames do, then two more over
// a local path, which waits for ready(). At the device or service:
//   * no call arrives before the one before it has replied;
//   * the calls run in delivery order.
// At the translator:
//   * ready() stays false while a call runs or waits;
//   * the completions resume the stalled local path;
//   * every native span it opened is closed again.
// The remote row maps a Bluetooth printer on one runtime and sends to it from
// another, so its three messages arrive as real UMTP DATA frames.
#include <gtest/gtest.h>

#include "bluetooth/mapper.hpp"
#include "core/native_device.hpp"
#include "netsim/exchange.hpp"
#include "rmi/mapper.hpp"
#include "upnp/devices.hpp"
#include "upnp/mapper.hpp"
#include "webservice/mapper.hpp"

namespace umiddle {
namespace {

using sim::milliseconds;
using sim::seconds;

/// What the device or service saw: each call's arrival and reply, and its
/// argument, in arrival order.
struct Probe {
  std::vector<sim::TimePoint> arrived;
  std::vector<sim::TimePoint> replied;
  std::vector<std::string> args;
};

/// How long the RMI and WS services hold each call before they reply.
constexpr sim::Duration kHold = milliseconds(40);

/// A Direct Printing device. Each OBEX PUT arrives on a connection of its
/// own, and the completed object is the call's reply.
class ProbePrinter : public bt::BtDevice {
 public:
  ProbePrinter(bt::BluetoothMedium& medium, sim::Scheduler& sched, Probe& probe)
      : BtDevice(medium, "Probe Printer", 0x000680), sched_(sched), probe_(probe),
        server_(
            [this](const bt::obex::Object& object) {
              probe_.replied.push_back(sched_.now());
              probe_.args.push_back(object.name);
            },
            nullptr) {
    records_.push_back(
        bt::SdpRecord{1, bt::kUuidDirectPrinting, "Direct Printing", bt::kPsmObexBip, "BIP"});
  }

 protected:
  [[nodiscard]] Result<void> on_power_on() override {
    if (auto r = bt::start_sdp_server(*this, &records_); !r.ok()) return r;
    return listen_psm(bt::kPsmObexBip, [this](net::StreamPtr stream) {
      probe_.arrived.push_back(sched_.now());
      server_.attach(std::move(stream));
    });
  }

 private:
  sim::Scheduler& sched_;
  Probe& probe_;
  std::vector<bt::SdpRecord> records_;
  bt::obex::Server server_;
};

enum class Platform { upnp, bluetooth, rmi, ws };

const char* name(Platform p) {
  switch (p) {
    case Platform::upnp: return "upnp";
    case Platform::bluetooth: return "bluetooth";
    case Platform::rmi: return "rmi";
    case Platform::ws: return "ws";
  }
  return "?";
}

/// The runtime's node and a device or service on the LAN (or on the
/// runtime's piconet), discovered and mapped as one translator.
struct World {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  bt::BluetoothMedium medium{net};
  core::UsdlLibrary library;
  Probe probe;
  std::unique_ptr<core::Runtime> runtime;
  std::string input;  ///< the translator's input port
  MimeType type;      ///< what the messages to it carry

  std::unique_ptr<upnp::ClockDevice> clock;
  std::unique_ptr<ProbePrinter> printer;
  std::unique_ptr<rmi::RmiRegistry> rmi_registry;
  std::unique_ptr<rmi::RegistryClient> rmi_client;
  std::vector<net::StreamPtr> rmi_streams;
  std::unique_ptr<ws::WsRegistry> ws_registry;
  std::unique_ptr<upnp::HttpServer> ws_service;

  explicit World(Platform platform) {
    const net::SegmentId lan = net.add_segment(net::SegmentSpec{});
    for (const char* host : {"umnode", "reg", "svc"}) {
      EXPECT_TRUE(net.add_host(host).ok());
      EXPECT_TRUE(net.attach(host, lan).ok());
    }
    runtime = std::make_unique<core::Runtime>(sched, net, "umnode");
    switch (platform) {
      case Platform::upnp: start_upnp(); break;
      case Platform::bluetooth: start_bluetooth(); break;
      case Platform::rmi: start_rmi(); break;
      case Platform::ws: start_ws(); break;
    }
    EXPECT_TRUE(runtime->start().ok());
    sched.run_for(seconds(4));
  }

  /// The Clock's SetTime, $body as its argument. UpnpDevice charges the
  /// unmarshal and actuation costs before the handler and the marshal cost
  /// after it, so the call's window follows from the handler's time.
  void start_upnp() {
    upnp::register_upnp_usdl(library);
    runtime->add_mapper(std::make_unique<upnp::UpnpMapper>(library));
    clock = std::make_unique<upnp::ClockDevice>(net, "svc", 8000);
    clock->on_action(upnp::kClockService, "SetTime",
                     [this](const upnp::ActionRequest& request) -> Result<upnp::ActionResponse> {
                       const upnp::UpnpCosts& costs = clock->costs();
                       probe.arrived.push_back(sched.now() - costs.soap_unmarshal -
                                               costs.actuation);
                       probe.replied.push_back(sched.now() + costs.soap_marshal);
                       auto arg = request.args.find("NewTime");
                       probe.args.push_back(arg == request.args.end() ? "" : arg->second);
                       return upnp::ActionResponse{request.service_type, request.action, {}};
                     });
    EXPECT_TRUE(clock->start().ok());
    input = "set-time";
    type = MimeType::of("text/plain");
  }

  void start_bluetooth() {
    bt::register_bt_usdl(library);
    runtime->add_mapper(std::make_unique<bt::BtMapper>(medium, library));
    printer = std::make_unique<ProbePrinter>(medium, sched, probe);
    EXPECT_TRUE(printer->power_on().ok());
    input = "image-in";
    type = MimeType::of("image/png");
  }

  /// An "rmi:echo" service whose `deliver` returns kHold after each call.
  void start_rmi() {
    rmi::register_rmi_usdl(library);
    rmi_registry = std::make_unique<rmi::RmiRegistry>(net, "reg");
    EXPECT_TRUE(rmi_registry->start().ok());
    EXPECT_TRUE(net.listen({"svc", 2001}, [this](net::StreamPtr s) {
                     rmi_streams.push_back(s);
                     s->on_data(net::frames<rmi::CallReader>(*s, [this, raw = s.get()](
                                                                     rmi::Call& call) {
                       probe.arrived.push_back(sched.now());
                       probe.args.push_back(to_string(call.args));
                       sched.schedule_after(kHold, [this, raw] {
                         probe.replied.push_back(sched.now());
                         (void)raw->send(rmi::encode_return(rmi::Return{false, to_bytes("ok")}));
                       });
                     }));
                   }).ok());
    rmi_client = std::make_unique<rmi::RegistryClient>(net, "svc", rmi_registry->endpoint());
    rmi_client->bind(rmi::Binding{"probe", "rmi:echo", "svc", 2001},
                     [](Result<void> r) { EXPECT_TRUE(r.ok()); });
    runtime->add_mapper(std::make_unique<rmi::RmiMapper>(rmi_registry->endpoint(), library));
    input = "data-in";
    type = MimeType::of("application/octet-stream");
  }

  /// A "weather" service whose getReport replies kHold after each call; its
  /// subscribe (the webhook binding's) replies at once.
  void start_ws() {
    ws::register_ws_usdl(library);
    ws_registry = std::make_unique<ws::WsRegistry>(net, "reg");
    EXPECT_TRUE(ws_registry->start().ok());
    ws_service = std::make_unique<upnp::HttpServer>(net, "svc", 8080);
    ws_service->route("/rpc", [this](const upnp::HttpRequest& request, upnp::RespondFn respond) {
      auto call = ws::decode_method_call(request.body);
      if (!call.ok() || call.value().first != "getReport") {
        respond(upnp::HttpResponse::make(200, "OK", ws::encode_method_response(to_bytes("ok"))));
        return;
      }
      probe.arrived.push_back(sched.now());
      probe.args.push_back(to_string(call.value().second));
      sched.schedule_after(kHold, [this, respond = std::move(respond)] {
        probe.replied.push_back(sched.now());
        respond(upnp::HttpResponse::make(200, "OK",
                                         ws::encode_method_response(to_bytes("sunny"))));
      });
    });
    EXPECT_TRUE(ws_service->start().ok());
    ws::ws_register(net, "svc", ws_registry->listing_url(),
                    ws::WsEntry{"probe", "weather", "http://svc:8080/rpc"},
                    [](Result<void> r) { EXPECT_TRUE(r.ok()); });
    runtime->add_mapper(std::make_unique<ws::WsMapper>(ws_registry->listing_url(), library));
    input = "query";
    type = MimeType::of("text/plain");
  }

  /// Message `i`: its text is its number, and so is its filename.
  core::Message message(int i) const {
    core::Message msg = core::Message::text(type, std::to_string(i));
    msg.meta["filename"] = std::to_string(i);
    return msg;
  }
};

/// The calls ran one at a time, in the order of `args`: each arrived no
/// earlier than the one before it replied.
void expect_serial(const Probe& probe, const std::vector<std::string>& args) {
  EXPECT_EQ(probe.args, args);
  ASSERT_EQ(probe.arrived.size(), args.size());
  ASSERT_EQ(probe.replied.size(), args.size());
  for (std::size_t i = 1; i < args.size(); ++i) {
    EXPECT_GE(probe.arrived[i], probe.replied[i - 1])
        << "call " << i + 1 << " arrived before call " << i << " replied";
  }
}

class SerialNativeCallTest : public ::testing::TestWithParam<Platform> {};

TEST_P(SerialNativeCallTest, OneCallAtATimeInDeliveryOrder) {
  World w(GetParam());
  auto found = w.runtime->directory().lookup(core::Query().platform(name(GetParam())));
  ASSERT_EQ(found.size(), 1u);
  const TranslatorId id = found[0].id;
  core::Translator* t = w.runtime->translator(id);
  ASSERT_NE(t, nullptr);
  auto source = std::make_unique<core::LambdaDevice>("source",
                                                     core::make_source_shape("out", w.type));
  core::LambdaDevice* src = source.get();
  auto src_id = w.runtime->map(std::move(source));
  ASSERT_TRUE(src_id.ok());
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{src_id.value(), "out"}, core::PortRef{id, w.input})
                  .ok());
  w.sched.run_for(seconds(1));
  ASSERT_TRUE(t->ready(w.input));
  ASSERT_TRUE(w.probe.args.empty());
  const std::size_t spans = w.net.tracer().open_spans();

  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(t->deliver(w.input, w.message(i)).ok());
  for (int i = 4; i <= 5; ++i) ASSERT_TRUE(src->emit("out", w.message(i)).ok());
  EXPECT_FALSE(t->ready(w.input));
  const sim::TimePoint deadline = w.sched.now() + seconds(10);
  while (w.sched.now() < deadline && w.sched.step()) {
    if (!t->ready(w.input)) continue;
    // Ready: nothing runs at the device, and the three delivered calls are done.
    ASSERT_EQ(w.probe.replied.size(), w.probe.arrived.size())
        << "ready() while a call is at the device, at " << w.sched.now().count() << " ns";
    ASSERT_GE(w.probe.replied.size(), 3u)
        << "ready() while a delivered call waits, at " << w.sched.now().count() << " ns";
  }
  expect_serial(w.probe, {"1", "2", "3", "4", "5"});
  EXPECT_TRUE(t->ready(w.input));
  EXPECT_EQ(w.net.tracer().open_spans(), spans);
}

INSTANTIATE_TEST_SUITE_P(Platforms, SerialNativeCallTest,
                         ::testing::Values(Platform::upnp, Platform::bluetooth, Platform::rmi,
                                           Platform::ws),
                         [](const ::testing::TestParamInfo<Platform>& info) {
                           return std::string(name(info.param));
                         });

TEST(SerialNativeCallTest, RemoteBluetoothPrinterPrintsOneDataFrameAtATime) {
  // Runtime A holds the source; runtime B maps the printer on its piconet.
  sim::Scheduler sched;
  net::Network net{sched, 1};
  const net::SegmentId lan = net.add_segment(net::SegmentSpec{});
  for (const char* host : {"node-a", "node-b"}) {
    ASSERT_TRUE(net.add_host(host).ok());
    ASSERT_TRUE(net.attach(host, lan).ok());
  }
  bt::BluetoothMedium medium{net};
  Probe probe;
  ProbePrinter printer(medium, sched, probe);
  ASSERT_TRUE(printer.power_on().ok());
  core::UsdlLibrary library;
  bt::register_bt_usdl(library);
  core::Runtime a(sched, net, "node-a");
  core::Runtime b(sched, net, "node-b");
  b.add_mapper(std::make_unique<bt::BtMapper>(medium, library));
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start().ok());
  const MimeType png = MimeType::of("image/png");
  auto source = std::make_unique<core::LambdaDevice>("source", core::make_source_shape("out", png));
  core::LambdaDevice* src = source.get();
  auto src_id = a.map(std::move(source));
  ASSERT_TRUE(src_id.ok());
  sched.run_for(seconds(4));
  ASSERT_TRUE(a.transport()
                  .connect(core::PortRef{src_id.value(), "out"},
                           core::Query().digital_input(MimeType::of("image/*")).platform("bluetooth"))
                  .ok());
  sched.run_for(seconds(1));
  const std::size_t spans = net.tracer().open_spans();

  for (int i = 1; i <= 3; ++i) {
    core::Message msg;
    msg.type = png;
    msg.payload = Bytes(2000, static_cast<std::uint8_t>(i));
    msg.meta["filename"] = std::to_string(i);
    ASSERT_TRUE(src->emit("out", std::move(msg)).ok());
  }
  sched.run_for(seconds(10));
  expect_serial(probe, {"1", "2", "3"});
  EXPECT_EQ(net.tracer().open_spans(), spans);
}

}  // namespace
}  // namespace umiddle
