// Tests for the UPnP substrate: HTTP, SSDP, SOAP, descriptions, GENA, the
// emulated devices, and the full mapper pipeline (SSDP discovery → description
// fetch → USDL-parameterized translator → SOAP control → GENA events).
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "core/umiddle.hpp"
#include "upnp/control_point.hpp"
#include "upnp/devices.hpp"
#include "upnp/mapper.hpp"

namespace umiddle::upnp {
namespace {

using sim::milliseconds;
using sim::seconds;

struct Fixture {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId lan;

  Fixture() {
    net::SegmentSpec spec;
    spec.latency = sim::microseconds(100);
    lan = net.add_segment(spec);
  }

  void add_host(const std::string& name) {
    ASSERT_TRUE(net.add_host(name).ok());
    ASSERT_TRUE(net.attach(name, lan).ok());
  }
};

// --- HTTP -------------------------------------------------------------------------

template <typename Reader>
Result<void> feed_text(Reader& reader, std::string_view text,
                       std::vector<typename Reader::Frame>& out) {
  return reader.feed(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
                     out);
}

TEST(HttpTest, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/control/SwitchPower";
  req.headers["soapaction"] = "\"urn:x#SetPower\"";
  req.body = "<xml/>";
  const Bytes wire = req.to_wire();
  EXPECT_EQ(std::string(wire.begin(), wire.end()),
            "POST /control/SwitchPower HTTP/1.1\r\nsoapaction: \"urn:x#SetPower\"\r\n"
            "content-length: 6\r\n\r\n<xml/>");
  HttpRequestReader reader;
  std::vector<HttpRequest> out;
  ASSERT_TRUE(reader.feed(wire, out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].method, "POST");
  EXPECT_EQ(out[0].path, "/control/SwitchPower");
  EXPECT_EQ(out[0].header("SOAPACTION"), "\"urn:x#SetPower\"");
  EXPECT_EQ(out[0].body, "<xml/>");
}

TEST(HttpTest, ResponseParsesIncrementally) {
  HttpResponse resp = HttpResponse::make(200, "OK", "hello world", "text/plain");
  const Bytes wire = resp.to_wire();
  HttpResponseReader reader;
  std::vector<HttpResponse> out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(reader.feed(std::span(wire).subspan(i, 1), out).ok());
    EXPECT_EQ(out.size(), i == wire.size() - 1 ? 1u : 0u);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, 200);
  EXPECT_EQ(out[0].body, "hello world");
}

TEST(HttpTest, MalformedRequestRejected) {
  HttpRequestReader reader;
  std::vector<HttpRequest> out;
  EXPECT_FALSE(feed_text(reader, "NONSENSE\r\nno colon here\r\n\r\n", out).ok());
}

TEST(HttpTest, MalformedContentLengthIsAParseError) {
  // A present content-length must parse: "12x" used to complete the message
  // with an empty body and leave the real body in the buffer.
  for (const char* length : {"12x", "", "-1", "0x10", "18446744073709551621",
                             "100000000000000000000"}) {
    HttpRequestReader request;
    std::vector<HttpRequest> requests;
    EXPECT_FALSE(feed_text(request, "POST /c HTTP/1.1\r\ncontent-length: " + std::string(length) +
                                        "\r\n\r\nhello world!",
                           requests)
                     .ok())
        << length;
    HttpResponseReader response;
    std::vector<HttpResponse> responses;
    EXPECT_FALSE(feed_text(response, "HTTP/1.1 200 OK\r\nContent-Length: " +
                                         std::string(length) + "\r\n\r\nhello world!",
                           responses)
                     .ok())
        << length;
  }
  // Absent means an empty body; a well-formed length still waits for its bytes.
  HttpRequestReader absent;
  std::vector<HttpRequest> out;
  ASSERT_TRUE(feed_text(absent, "GET / HTTP/1.1\r\n\r\n", out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].body, "");
  HttpRequestReader waiting;
  out.clear();
  ASSERT_TRUE(feed_text(waiting, "POST /c HTTP/1.1\r\ncontent-length: 12\r\n\r\nhello", out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(feed_text(waiting, " world!extra", out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].body, "hello world!") << "bytes past content-length start the next message";
}

// A head with no blank line, fed up to 32 MiB: once it reaches kMaxFrame the
// reader fails and stays failed instead of buffering without limit.
TEST(HttpTest, EndlessHeadPoisons) {
  HttpRequestReader reader;
  std::vector<HttpRequest> out;
  ASSERT_TRUE(feed_text(reader, "GET / HTTP/1.1\r\nx-filler: ", out).ok());
  const Bytes filler(1 << 20, 'a');
  Result<void> last = ok_result();
  for (int mib = 0; mib < 32 && last.ok(); ++mib) last = reader.feed(filler, out);
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.error().code, Errc::protocol_error);
  const Result<void> again = reader.feed(filler, out);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().to_string(), last.error().to_string());
  EXPECT_TRUE(out.empty());
}

// A content-length no buffer may hold is rejected with the head, before any
// body byte is buffered, and poisons the reader.
TEST(HttpTest, OversizedContentLengthPoisonsAtOnce) {
  HttpRequestReader reader;
  std::vector<HttpRequest> out;
  const Result<void> first = feed_text(
      reader, "POST /c HTTP/1.1\r\ncontent-length: 18446744073709551615\r\n\r\nbody", out);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, Errc::protocol_error);
  const Result<void> again = reader.feed(Bytes(1 << 20, 'b'), out);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().to_string(), first.error().to_string());
  EXPECT_TRUE(out.empty());
}

TEST(HttpTest, ServerRoutesAndFetch) {
  Fixture f;
  f.add_host("server");
  f.add_host("client");
  HttpServer server(f.net, "server", 80);
  server.route("/hello", sync_handler([](const HttpRequest&) {
                 return HttpResponse::make(200, "OK", "hi", "text/plain");
               }));
  server.route_prefix("/tree/", sync_handler([](const HttpRequest& req) {
                        return HttpResponse::make(200, "OK", "prefix:" + req.path, "text/plain");
                      }));
  ASSERT_TRUE(server.start().ok());

  int done = 0;
  HttpRequest get;
  get.path = "/hello";
  http_fetch(f.net, "client", Uri::parse("http://server:80/hello").value(), get,
             [&](Result<HttpResponse> r) {
               ASSERT_TRUE(r.ok());
               EXPECT_EQ(r.value().status, 200);
               EXPECT_EQ(r.value().body, "hi");
               ++done;
             });
  HttpRequest tree;
  tree.path = "/tree/a/b";
  http_fetch(f.net, "client", Uri::parse("http://server:80/tree/a/b").value(), tree,
             [&](Result<HttpResponse> r) {
               ASSERT_TRUE(r.ok());
               EXPECT_EQ(r.value().body, "prefix:/tree/a/b");
               ++done;
             });
  HttpRequest missing;
  missing.path = "/absent";
  http_fetch(f.net, "client", Uri::parse("http://server:80/absent").value(), missing,
             [&](Result<HttpResponse> r) {
               ASSERT_TRUE(r.ok());
               EXPECT_EQ(r.value().status, 404);
               ++done;
             });
  f.sched.run();
  EXPECT_EQ(done, 3);
}

TEST(HttpTest, FetchToMissingServerFails) {
  Fixture f;
  f.add_host("client");
  f.add_host("server");
  bool done = false;
  http_fetch(f.net, "client", Uri::parse("http://server:80/").value(), HttpRequest{},
             [&](Result<HttpResponse> r) {
               EXPECT_FALSE(r.ok());
               done = true;
             });
  f.sched.run();
  EXPECT_TRUE(done);
}

// --- SSDP --------------------------------------------------------------------------

TEST(SsdpTest, NotifyAliveAndByebye) {
  Fixture f;
  f.add_host("device");
  f.add_host("cp");
  SsdpAgent device(f.net, "device");
  SsdpAgent cp(f.net, "cp");
  std::vector<SsdpAnnouncement> seen;
  cp.on_announcement([&](const SsdpAnnouncement& a) { seen.push_back(a); });
  ASSERT_TRUE(cp.start().ok());
  ASSERT_TRUE(device.start().ok());

  device.advertise({"urn:type:Light:1", "uuid:1::urn:type:Light:1", "http://device:80/d.xml", true});
  f.sched.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].alive);
  EXPECT_EQ(seen[0].location, "http://device:80/d.xml");

  device.withdraw("uuid:1::urn:type:Light:1");
  f.sched.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_FALSE(seen[1].alive);
}

TEST(SsdpTest, MSearchGetsUnicastResponses) {
  Fixture f;
  f.add_host("device");
  f.add_host("cp");
  SsdpAgent device(f.net, "device");
  ASSERT_TRUE(device.start().ok());
  device.advertise({"urn:type:Light:1", "uuid:1::urn", "http://device:80/d.xml", true});
  device.advertise({"urn:type:Clock:1", "uuid:2::urn", "http://device:80/c.xml", true});
  f.sched.run();

  SsdpAgent cp(f.net, "cp");
  std::vector<SsdpAnnouncement> seen;
  cp.on_announcement([&](const SsdpAnnouncement& a) { seen.push_back(a); });
  ASSERT_TRUE(cp.start().ok());
  ASSERT_TRUE(cp.search("ssdp:all").ok());
  f.sched.run();
  EXPECT_EQ(seen.size(), 2u);

  seen.clear();
  ASSERT_TRUE(cp.search("urn:type:Clock:1").ok());
  f.sched.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].notification_type, "urn:type:Clock:1");
}

// --- SOAP --------------------------------------------------------------------------

TEST(SoapTest, RequestRoundTrip) {
  ActionRequest req;
  req.service_type = "urn:schemas-upnp-org:service:SwitchPower:1";
  req.action = "SetPower";
  req.args["Power"] = "1";
  auto back = ActionRequest::from_envelope(ActionRequest(req).to_envelope(), req.soap_action_header());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().action, "SetPower");
  EXPECT_EQ(back.value().service_type, req.service_type);
  EXPECT_EQ(back.value().args.at("Power"), "1");
}

TEST(SoapTest, ResponseRoundTrip) {
  ActionResponse resp;
  resp.service_type = "urn:x:service:Clock:1";
  resp.action = "GetTime";
  resp.args["CurrentTime"] = "12345";
  auto back = ActionResponse::from_envelope(resp.to_envelope());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().action, "GetTime");
  EXPECT_EQ(back.value().args.at("CurrentTime"), "12345");
}

TEST(SoapTest, FaultRoundTrip) {
  SoapFault fault{401, "Invalid Action"};
  auto back = SoapFault::from_envelope(fault.to_envelope());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().error_code, 401);
  EXPECT_EQ(back.value().description, "Invalid Action");
}

TEST(SoapTest, RejectsMismatchedSoapAction) {
  ActionRequest req;
  req.service_type = "urn:x";
  req.action = "SetPower";
  EXPECT_FALSE(ActionRequest::from_envelope(ActionRequest(req).to_envelope(), "\"urn:x#Other\"").ok());
  EXPECT_FALSE(ActionRequest::from_envelope(ActionRequest(req).to_envelope(), "no-hash").ok());
  EXPECT_FALSE(ActionRequest::from_envelope("<not-soap/>", "\"urn:x#SetPower\"").ok());
}

// --- description / GENA docs ----------------------------------------------------------

TEST(DescriptionTest, RoundTrip) {
  DeviceDescription d;
  d.device_type = kBinaryLightType;
  d.friendly_name = "Desk light";
  d.udn = "uuid:test-1";
  d.services.push_back(ServiceDescription{kSwitchPowerService, "urn:id:SwitchPower",
                                          "http://h:1/control", "http://h:1/event",
                                          {"SetPower", "GetStatus"},
                                          {"Status"}});
  auto back = DeviceDescription::from_xml_text(d.to_xml_text());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().friendly_name, "Desk light");
  ASSERT_EQ(back.value().services.size(), 1u);
  EXPECT_EQ(back.value().services[0].actions.size(), 2u);
  EXPECT_NE(back.value().service(kSwitchPowerService), nullptr);
  EXPECT_EQ(back.value().service("urn:none"), nullptr);
}

TEST(DescriptionTest, RejectsMissingFields) {
  EXPECT_FALSE(DeviceDescription::from_xml_text("<root/>").ok());
  EXPECT_FALSE(DeviceDescription::from_xml_text("<root><device/></root>").ok());
}

TEST(GenaTest, PropertySetRoundTrip) {
  PropertySet set;
  set.properties["Status"] = "1";
  set.properties["Level"] = "42";
  auto back = PropertySet::from_xml_text(set.to_xml_text());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().properties, set.properties);
  EXPECT_FALSE(PropertySet::from_xml_text("<wrong/>").ok());
}

// --- devices + control point ------------------------------------------------------------

TEST(UpnpDeviceTest, ControlPointDiscoversAndControlsLight) {
  Fixture f;
  f.add_host("light-host");
  f.add_host("cp-host");
  BinaryLight light(f.net, "light-host", 8000, "Desk light");
  ASSERT_TRUE(light.start().ok());

  ControlPoint cp(f.net, "cp-host");
  DeviceDescription found;
  std::string found_location;
  cp.on_device([&](const DeviceDescription& d, const std::string& l) {
    found = d;
    found_location = l;
  });
  ASSERT_TRUE(cp.start().ok());
  ASSERT_TRUE(cp.search().ok());
  f.sched.run();
  ASSERT_EQ(found.udn, light.udn());
  EXPECT_EQ(found.friendly_name, "Desk light");

  const ServiceDescription* svc = found.service(kSwitchPowerService);
  ASSERT_NE(svc, nullptr);

  // SetPower 1, then GetStatus.
  sim::TimePoint start = f.sched.now();
  bool set_done = false;
  ActionRequest set;
  set.service_type = kSwitchPowerService;
  set.action = "SetPower";
  set.args["Power"] = "1";
  cp.invoke(svc->control_url, set, [&](Result<ActionResponse> r) {
    ASSERT_TRUE(r.ok());
    set_done = true;
  });
  f.sched.run();
  ASSERT_TRUE(set_done);
  EXPECT_TRUE(light.is_on());
  // One action costs ≈150 ms in the UPnP domain (§5.2 calibration).
  sim::Duration took = f.sched.now() - start;
  EXPECT_GT(took, milliseconds(120));
  EXPECT_LT(took, milliseconds(200));

  bool get_done = false;
  ActionRequest get;
  get.service_type = kSwitchPowerService;
  get.action = "GetStatus";
  cp.invoke(svc->control_url, get, [&](Result<ActionResponse> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().args.at("ResultStatus"), "1");
    get_done = true;
  });
  f.sched.run();
  EXPECT_TRUE(get_done);
}

TEST(UpnpDeviceTest, InvalidActionYieldsSoapFault) {
  Fixture f;
  f.add_host("light-host");
  f.add_host("cp-host");
  BinaryLight light(f.net, "light-host");
  ASSERT_TRUE(light.start().ok());
  ControlPoint cp(f.net, "cp-host");
  ASSERT_TRUE(cp.start().ok());

  bool done = false;
  ActionRequest bad;
  bad.service_type = kSwitchPowerService;
  bad.action = "SetPower";
  bad.args["Power"] = "7";  // not 0/1
  cp.invoke("http://light-host:8000/control/SwitchPower", bad, [&](Result<ActionResponse> r) {
    EXPECT_FALSE(r.ok());
    done = true;
  });
  f.sched.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(light.is_on());
}

TEST(UpnpDeviceTest, ConcurrentActionsEachGetTheirOwnResponse) {
  // Both ends park an action in flight under a key (ControlPoint until the
  // POST, UpnpDevice until the response): several at once must not cross.
  Fixture f;
  f.add_host("light-host");
  f.add_host("cp-host");
  BinaryLight light(f.net, "light-host");
  ASSERT_TRUE(light.start().ok());
  ControlPoint cp(f.net, "cp-host");
  ASSERT_TRUE(cp.start().ok());
  const std::string url = "http://light-host:8000/control/SwitchPower";
  auto action = [](const std::string& name, const std::string& power) {
    ActionRequest r;
    r.service_type = kSwitchPowerService;
    r.action = name;
    if (!power.empty()) r.args["Power"] = power;
    return r;
  };
  cp.invoke(url, action("SetPower", "1"), [](Result<ActionResponse> r) { EXPECT_TRUE(r.ok()); });
  f.sched.run();
  ASSERT_TRUE(light.is_on());

  std::vector<std::string> outcomes(4);
  auto record = [&outcomes](std::size_t i) {
    return [&outcomes, i](Result<ActionResponse> r) {
      if (!r.ok()) {
        outcomes[i] = "error";
      } else {
        auto status = r.value().args.find("ResultStatus");
        outcomes[i] = r.value().action + ":" +
                      (status == r.value().args.end() ? "-" : status->second);
      }
    };
  };
  cp.invoke(url, action("GetStatus", ""), record(0));
  cp.invoke(url, action("SetPower", "7"), record(1));
  cp.invoke(url, action("SetPower", "1"), record(2));
  cp.invoke(url, action("GetStatus", ""), record(3));
  f.sched.run();
  EXPECT_EQ(outcomes, (std::vector<std::string>{"GetStatus:1", "error", "SetPower:-",
                                                 "GetStatus:1"}));
  EXPECT_EQ(light.actions_handled(), 5u);

  // stop() ends the actions still waiting to be posted, and a restarted
  // control point posts new ones.
  bool ended = false;
  cp.invoke(url, action("SetPower", "0"), [&ended](Result<ActionResponse>) { ended = true; });
  cp.stop();
  f.sched.run();
  EXPECT_FALSE(ended);
  EXPECT_TRUE(light.is_on());
  ASSERT_TRUE(cp.start().ok());
  cp.invoke(url, action("SetPower", "0"), [&ended](Result<ActionResponse> r) {
    EXPECT_TRUE(r.ok());
    ended = true;
  });
  f.sched.run();
  EXPECT_TRUE(ended);
  EXPECT_FALSE(light.is_on());
}

TEST(UpnpDeviceTest, DestroyedWithAnActionInFlightRunsNothing) {
  // The action and marshal events outlive a device destroyed mid-action;
  // they must not touch it (a use-after-free under ASan before the fix). The
  // unanswered responder dies with the device and closes its stream, so the
  // control point's completion runs once, with a disconnect.
  Fixture f;
  f.add_host("light-host");
  f.add_host("cp-host");
  auto light = std::make_unique<BinaryLight>(f.net, "light-host");
  ASSERT_TRUE(light->start().ok());
  ControlPoint cp(f.net, "cp-host");
  ASSERT_TRUE(cp.start().ok());
  ActionRequest set;
  set.service_type = kSwitchPowerService;
  set.action = "SetPower";
  set.args["Power"] = "1";
  std::vector<Result<ActionResponse>> completions;
  cp.invoke("http://light-host:8000/control/SwitchPower", set,
            [&completions](Result<ActionResponse> r) { completions.push_back(std::move(r)); });
  // Past the POST (the 18 ms marshal), inside the 93 ms unmarshal + actuation.
  f.sched.run_for(milliseconds(40));
  ASSERT_EQ(light->actions_handled(), 0u);
  light.reset();
  f.sched.run();
  ASSERT_EQ(completions.size(), 1u);
  ASSERT_FALSE(completions.front().ok());
  EXPECT_EQ(completions.front().error().code, Errc::disconnected);
}

TEST(UpnpDeviceTest, GenaEventsReachSubscribers) {
  Fixture f;
  f.add_host("light-host");
  f.add_host("cp-host");
  BinaryLight light(f.net, "light-host");
  ASSERT_TRUE(light.start().ok());
  ControlPoint cp(f.net, "cp-host");
  ASSERT_TRUE(cp.start().ok());

  std::vector<std::string> events;
  cp.subscribe("http://light-host:8000/event/SwitchPower", [&](const PropertySet& set) {
    events.push_back(set.properties.at("Status"));
  });
  f.sched.run();
  EXPECT_EQ(light.subscriber_count(), 1u);

  light.set_state(kSwitchPowerService, "Status", "1");
  light.set_state(kSwitchPowerService, "Status", "1");  // unchanged → no event
  light.set_state(kSwitchPowerService, "Status", "0");
  f.sched.run();
  EXPECT_EQ(events, (std::vector<std::string>{"1", "0"}));
}

// --- full mapper pipeline ------------------------------------------------------------------

struct MapperWorld : Fixture {
  std::unique_ptr<core::Runtime> runtime;
  core::UsdlLibrary library;

  MapperWorld() {
    add_host("umiddle-host");
    register_upnp_usdl(library);
    runtime = std::make_unique<core::Runtime>(sched, net, "umiddle-host");
    runtime->add_mapper(std::make_unique<UpnpMapper>(library));
  }
};

TEST(UpnpMapperTest, DiscoversAndMapsLightWithPaperShape) {
  MapperWorld w;
  w.add_host("light-host");
  BinaryLight light(w.net, "light-host");
  ASSERT_TRUE(light.start().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));

  auto profiles = w.runtime->directory().lookup(core::Query().platform("upnp"));
  ASSERT_EQ(profiles.size(), 1u);
  const core::TranslatorProfile& p = profiles[0];
  EXPECT_EQ(p.device_type, kBinaryLightType);
  // The paper's §3.4 example: two digital input ports (on passes 1, off passes 0).
  EXPECT_EQ(p.shape.digital_inputs().size(), 2u);
  EXPECT_NE(p.shape.find("power-on"), nullptr);
  EXPECT_NE(p.shape.find("power-off"), nullptr);
  EXPECT_NE(p.shape.find("glow"), nullptr);
}

TEST(UpnpMapperTest, TranslatorControlsNativeLight) {
  MapperWorld w;
  w.add_host("light-host");
  BinaryLight light(w.net, "light-host");
  ASSERT_TRUE(light.start().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));

  auto profiles = w.runtime->directory().lookup(core::Query().platform("upnp"));
  ASSERT_EQ(profiles.size(), 1u);
  core::Translator* t = w.runtime->translator(profiles[0].id);
  ASSERT_NE(t, nullptr);

  core::Message msg;
  msg.type = MimeType::of("application/x-upnp-control");
  ASSERT_TRUE(t->deliver("power-on", msg).ok());
  w.sched.run_for(seconds(1));
  EXPECT_TRUE(light.is_on());
  ASSERT_TRUE(t->deliver("power-off", msg).ok());
  w.sched.run_for(seconds(1));
  EXPECT_FALSE(light.is_on());
  EXPECT_EQ(light.switch_count(), 2u);
}

TEST(UpnpMapperTest, ClockTranslatorHasFourteenPortsAndQueriesWork) {
  MapperWorld w;
  w.add_host("clock-host");
  ClockDevice clock(w.net, "clock-host");
  ASSERT_TRUE(clock.start().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(4));

  auto profiles = w.runtime->directory().lookup(core::Query().platform("upnp"));
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].shape.size(), 14u);  // the paper's Fig. 10 configuration

  // set-time then get-time; the response is emitted from "time-out".
  auto sink = std::make_unique<core::CollectorDevice>(
      "TimeSink", core::make_sink_shape("in", MimeType::of("text/plain")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  auto path = w.runtime->transport().connect(core::PortRef{profiles[0].id, "time-out"},
                                             core::PortRef{sink_id, "in"});
  ASSERT_TRUE(path.ok());

  core::Translator* t = w.runtime->translator(profiles[0].id);
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->deliver("set-time", core::Message::text(MimeType::of("text/plain"), "5000")).ok());
  w.sched.run_for(seconds(1));
  EXPECT_EQ(clock.time_seconds(), 5000u);

  ASSERT_TRUE(t->deliver("get-time",
                         core::Message::text(MimeType::of("application/x-upnp-control"), ""))
                  .ok());
  w.sched.run_for(seconds(1));
  ASSERT_GE(sink_raw->count(), 1u);
  EXPECT_EQ(sink_raw->received().back().msg.body_text(), "5000");
}

TEST(UpnpMapperTest, EventsFlowFromNativeDeviceToPorts) {
  MapperWorld w;
  w.add_host("ac-host");
  AirConditioner ac(w.net, "ac-host");
  ASSERT_TRUE(ac.start().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));

  auto profiles = w.runtime->directory().lookup(core::Query().platform("upnp"));
  ASSERT_EQ(profiles.size(), 1u);

  auto sink = std::make_unique<core::CollectorDevice>(
      "TempSink", core::make_sink_shape("in", MimeType::of("text/plain")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{profiles[0].id, "temperature-out"},
                           core::PortRef{sink_id, "in"})
                  .ok());

  core::Translator* t = w.runtime->translator(profiles[0].id);
  ASSERT_TRUE(
      t->deliver("mode-in", core::Message::text(MimeType::of("text/plain"), "Cool")).ok());
  w.sched.run_for(seconds(1));
  EXPECT_EQ(ac.mode(), "Cool");
  ac.drift();  // native temperature change → GENA → translator → port
  w.sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 1u);
  EXPECT_EQ(sink_raw->received()[0].msg.body_text(), "27");
}

// The GENA restart probe: an AirConditioner bridged by a runtime that stops,
// or crashes, and starts three times, then a path from temperature-out to a
// sink. Every start makes a fresh control point whose first callback path is
// /gena/1 again, so a stale subscription would NOTIFY the live handler.
struct GenaRestartProbe : MapperWorld {
  std::unique_ptr<AirConditioner> ac;
  core::CollectorDevice* sink = nullptr;

  void run(bool crash) {
    add_host("ac-host");
    ac = std::make_unique<AirConditioner>(net, "ac-host");
    ASSERT_TRUE(ac->start().ok());
    ASSERT_TRUE(runtime->start().ok());
    sched.run_for(seconds(3));
    // Cooling, so each drift() changes the temperature.
    auto first = runtime->directory().lookup(core::Query().platform("upnp"));
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(runtime->translator(first[0].id)
                    ->deliver("mode-in", core::Message::text(MimeType::of("text/plain"), "Cool"))
                    .ok());
    sched.run_for(seconds(1));
    ASSERT_EQ(ac->mode(), "Cool");
    for (int i = 0; i < 3; ++i) {
      if (crash) {
        runtime->crash();
      } else {
        runtime->stop();
      }
      sched.run_for(seconds(1));
      ASSERT_TRUE(runtime->start().ok());
      sched.run_for(seconds(3));
    }
    auto profiles = runtime->directory().lookup(core::Query().platform("upnp"));
    ASSERT_EQ(profiles.size(), 1u);
    auto collector = std::make_unique<core::CollectorDevice>(
        "TempSink", core::make_sink_shape("in", MimeType::of("text/plain")));
    sink = collector.get();
    auto sink_id = runtime->map(std::move(collector)).take();
    ASSERT_TRUE(runtime->transport()
                    .connect(core::PortRef{profiles[0].id, "temperature-out"},
                             core::PortRef{sink_id, "in"})
                    .ok());
  }

  /// One native event; returns the sink's message count after it.
  std::size_t drift() {
    ac->drift();
    sched.run_for(seconds(1));
    return sink->count();
  }
};

// A stopping runtime UNSUBSCRIBEs its event translators' subscriptions.
TEST(UpnpMapperTest, EachEventArrivesOnceAfterGracefulRestarts) {
  GenaRestartProbe probe;
  ASSERT_NO_FATAL_FAILURE(probe.run(/*crash=*/false));
  EXPECT_EQ(probe.ac->subscriber_count(), 1u);
  EXPECT_EQ(probe.drift(), 1u);
  EXPECT_EQ(probe.drift(), 2u);
  EXPECT_EQ(probe.ac->subscriber_count(), 1u);
}

// A crashed runtime sends nothing: the control point answers each stale
// subscription's NOTIFY 412, and the device drops it.
TEST(UpnpMapperTest, EachEventArrivesOnceAfterCrashes) {
  GenaRestartProbe probe;
  ASSERT_NO_FATAL_FAILURE(probe.run(/*crash=*/true));
  EXPECT_EQ(probe.drift(), 1u);
  EXPECT_EQ(probe.ac->subscriber_count(), 1u);
  EXPECT_EQ(probe.drift(), 2u);
  EXPECT_EQ(probe.ac->subscriber_count(), 1u);
}

TEST(UpnpMapperTest, ByebyeUnmapsTranslator) {
  MapperWorld w;
  w.add_host("light-host");
  auto light = std::make_unique<BinaryLight>(w.net, "light-host");
  ASSERT_TRUE(light->start().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));
  ASSERT_EQ(w.runtime->directory().lookup(core::Query().platform("upnp")).size(), 1u);

  light->stop();  // multicasts ssdp:byebye
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.runtime->directory().lookup(core::Query().platform("upnp")).size(), 0u);
}

TEST(UpnpMapperTest, UnknownDeviceTypeIsIgnored) {
  MapperWorld w;
  w.add_host("odd-host");
  DeviceDescription odd;
  odd.device_type = "urn:schemas-upnp-org:device:Toaster:1";
  odd.friendly_name = "Toaster";
  odd.udn = "uuid:odd-1";
  UpnpDevice toaster(w.net, "odd-host", 8000, odd);
  ASSERT_TRUE(toaster.start().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));
  EXPECT_EQ(w.runtime->directory().lookup(core::Query().platform("upnp")).size(), 0u);
}

TEST(UpnpMapperTest, CameraImageRendersOnTvEndToEnd) {
  // The paper's flagship pairing, §1/§4.2: an image source driving the
  // MediaRenderer TV through the intermediary semantic space.
  MapperWorld w;
  w.add_host("tv-host");
  MediaRendererTv tv(w.net, "tv-host");
  ASSERT_TRUE(tv.start().ok());
  ASSERT_TRUE(w.runtime->start().ok());
  w.sched.run_for(seconds(3));

  auto tvs = w.runtime->directory().lookup(
      core::Query().digital_input(MimeType::of("image/jpeg")).platform("upnp"));
  ASSERT_EQ(tvs.size(), 1u);

  auto camera = std::make_unique<core::LambdaDevice>(
      "Camera", core::make_source_shape("image-out", MimeType::of("image/jpeg")));
  core::LambdaDevice* camera_raw = camera.get();
  auto camera_id = w.runtime->map(std::move(camera)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{camera_id, "image-out"},
                           core::Query().digital_input(MimeType::of("image/*")))
                  .ok());

  core::Message photo;
  photo.type = MimeType::of("image/jpeg");
  photo.payload = Bytes(4096, 0xA5);
  photo.meta["filename"] = "dsc001.jpg";
  ASSERT_TRUE(camera_raw->emit("image-out", std::move(photo)).ok());
  w.sched.run_for(seconds(2));

  ASSERT_EQ(tv.rendered().size(), 1u);
  EXPECT_EQ(tv.rendered()[0].name, "dsc001.jpg");
  EXPECT_EQ(tv.rendered()[0].bytes, 4096u);
}

}  // namespace
}  // namespace umiddle::upnp
