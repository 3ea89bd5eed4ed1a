// Tests for the web-services platform: XML-RPC codec, service endpoint,
// UDDI-lite registry, webhooks, and the mapper pipeline.
#include <gtest/gtest.h>

#include "core/umiddle.hpp"
#include "webservice/mapper.hpp"

namespace umiddle::ws {
namespace {

using sim::seconds;

struct Lan {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId lan;

  Lan() { lan = net.add_segment(net::SegmentSpec{}); }
  void add_host(const std::string& name) {
    ASSERT_TRUE(net.add_host(name).ok());
    ASSERT_TRUE(net.attach(name, lan).ok());
  }
};

// --- codec --------------------------------------------------------------------------

TEST(WsCodecTest, MethodCallRoundTrip) {
  Bytes param = {1, 2, 3, 250};
  auto back = decode_method_call(encode_method_call("getReport", param));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().first, "getReport");
  EXPECT_EQ(back.value().second, param);
}

TEST(WsCodecTest, ResponseAndFault) {
  Bytes param = to_bytes("sunny");
  auto ok = decode_method_response(encode_method_response(param));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), param);

  auto fault = decode_method_response(encode_fault("boom"));
  ASSERT_FALSE(fault.ok());
  EXPECT_NE(fault.error().message.find("boom"), std::string::npos);
}

TEST(WsCodecTest, NotificationRoundTrip) {
  Bytes param = to_bytes("update!");
  auto back = decode_notification(encode_notification(param));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), param);
  EXPECT_FALSE(decode_notification("<other/>").ok());
  EXPECT_FALSE(decode_method_call("<junk/>").ok());
}

// --- service ----------------------------------------------------------------------------

TEST(WsServiceTest, CallDispatchAndFaults) {
  Lan f;
  f.add_host("svc");
  f.add_host("client");
  WsService service(f.net, "svc", 8080, "calc", "calc");
  service.export_method("double", [](const Bytes& p) -> Result<Bytes> {
    Bytes out = p;
    out.insert(out.end(), p.begin(), p.end());
    return out;
  });
  service.export_method("fail", [](const Bytes&) -> Result<Bytes> {
    return make_error(Errc::refused, "nope");
  });
  ASSERT_TRUE(service.start().ok());

  int done = 0;
  ws_call(f.net, "client", service.endpoint_url(), "double", Bytes{7}, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), (Bytes{7, 7}));
    ++done;
  });
  ws_call(f.net, "client", service.endpoint_url(), "fail", {}, [&](Result<Bytes> r) {
    EXPECT_FALSE(r.ok());
    ++done;
  });
  ws_call(f.net, "client", service.endpoint_url(), "ghost", {}, [&](Result<Bytes> r) {
    EXPECT_FALSE(r.ok());
    ++done;
  });
  f.sched.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(service.calls_served(), 3u);
}

TEST(WsServiceTest, WebhookSubscriptionAndNotify) {
  Lan f;
  f.add_host("svc");
  f.add_host("subscriber");
  WsService service(f.net, "svc", 8080, "feed", "feed");
  ASSERT_TRUE(service.start().ok());

  // Subscriber runs a plain HTTP endpoint.
  upnp::HttpServer hook(f.net, "subscriber", 9000);
  std::vector<std::string> received;
  hook.route("/cb", upnp::sync_handler([&](const upnp::HttpRequest& req) {
               auto param = decode_notification(req.body);
               EXPECT_TRUE(param.ok());
               received.push_back(umiddle::to_string(param.value()));
               return upnp::HttpResponse::make(200, "OK");
             }));
  ASSERT_TRUE(hook.start().ok());

  bool subscribed = false;
  ws_call(f.net, "subscriber", service.endpoint_url(), "subscribe",
          to_bytes("http://subscriber:9000/cb"), [&](Result<Bytes> r) {
            ASSERT_TRUE(r.ok());
            subscribed = true;
          });
  f.sched.run();
  ASSERT_TRUE(subscribed);
  EXPECT_EQ(service.subscriber_count(), 1u);

  service.notify_subscribers(to_bytes("v1"));
  service.notify_subscribers(to_bytes("v2"));
  f.sched.run();
  EXPECT_EQ(received, (std::vector<std::string>{"v1", "v2"}));
}

TEST(WsServiceTest, BadWebhookUrlRejected) {
  Lan f;
  f.add_host("svc");
  f.add_host("client");
  WsService service(f.net, "svc", 8080, "feed", "feed");
  ASSERT_TRUE(service.start().ok());
  bool done = false;
  ws_call(f.net, "client", service.endpoint_url(), "subscribe", to_bytes("not-a-url"),
          [&](Result<Bytes> r) {
            EXPECT_FALSE(r.ok());
            done = true;
          });
  f.sched.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(service.subscriber_count(), 0u);
}

// --- registry ----------------------------------------------------------------------------

TEST(WsRegistryTest, RegisterListUnregister) {
  Lan f;
  f.add_host("reg");
  f.add_host("svc");
  WsRegistry registry(f.net, "reg");
  ASSERT_TRUE(registry.start().ok());

  int steps = 0;
  ws_register(f.net, "svc", registry.listing_url(),
              WsEntry{"weather-1", "weather", "http://svc:8080/rpc"}, [&](Result<void> r) {
                ASSERT_TRUE(r.ok());
                ++steps;
              });
  f.sched.run();
  EXPECT_EQ(registry.size(), 1u);

  ws_list(f.net, "svc", registry.listing_url(), [&](Result<std::vector<WsEntry>> r) {
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().size(), 1u);
    EXPECT_EQ(r.value()[0].name, "weather-1");
    EXPECT_EQ(r.value()[0].type, "weather");
    ++steps;
  });
  f.sched.run();

  ws_unregister(f.net, "svc", registry.listing_url(), "weather-1", [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    ++steps;
  });
  f.sched.run();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(steps, 3);
}

// A name belongs to the host that registered it: another host's register over
// it (409) and unregister (403) are refused, so the entry stays. The
// registering host replaces and unregisters it.
TEST(WsRegistryTest, OnlyTheRegisteringHostReplacesOrUnregistersAName) {
  Lan f;
  f.add_host("reg");
  f.add_host("svc");
  f.add_host("other");
  WsRegistry registry(f.net, "reg");
  ASSERT_TRUE(registry.start().ok());
  std::vector<bool> done;
  auto record = [&](Result<void> r) { done.push_back(r.ok()); };
  ws_register(f.net, "svc", registry.listing_url(),
              WsEntry{"weather-1", "weather", "http://svc:8080/rpc"}, record);
  f.sched.run();
  ws_unregister(f.net, "other", registry.listing_url(), "weather-1", record);
  f.sched.run();
  ws_register(f.net, "other", registry.listing_url(),
              WsEntry{"weather-1", "weather", "http://other:8080/rpc"}, record);
  f.sched.run();
  EXPECT_EQ(done, (std::vector<bool>{true, false, false}));
  EXPECT_EQ(registry.size(), 1u);
  std::vector<WsEntry> listed;
  ws_list(f.net, "other", registry.listing_url(), [&](Result<std::vector<WsEntry>> r) {
    if (r.ok()) listed = r.value();
  });
  f.sched.run();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].url, "http://svc:8080/rpc");

  ws_register(f.net, "svc", registry.listing_url(),
              WsEntry{"weather-1", "weather", "http://svc:8081/rpc"}, record);
  f.sched.run();
  ws_unregister(f.net, "svc", registry.listing_url(), "weather-1", record);
  f.sched.run();
  EXPECT_EQ(done, (std::vector<bool>{true, false, false, true, true}));
  EXPECT_EQ(registry.size(), 0u);
}

// --- mapper -----------------------------------------------------------------------------

struct WsWorld : Lan {
  core::UsdlLibrary library;
  std::unique_ptr<WsRegistry> registry;
  std::unique_ptr<WsService> weather;
  std::unique_ptr<core::Runtime> runtime;

  WsWorld() {
    add_host("reg");
    add_host("svc");
    add_host("umnode");
    register_ws_usdl(library);
    registry = std::make_unique<WsRegistry>(net, "reg");
    EXPECT_TRUE(registry->start().ok());
    weather = std::make_unique<WsService>(net, "svc", 8080, "weather-1", "weather");
    weather->export_method("getReport", [](const Bytes& p) -> Result<Bytes> {
      return to_bytes("report for " + umiddle::to_string(p) + ": sunny, 23C");
    });
    EXPECT_TRUE(weather->start().ok());
    ws_register(net, "svc", registry->listing_url(),
                WsEntry{"weather-1", "weather", weather->endpoint_url()},
                [](Result<void>) {});
    runtime = std::make_unique<core::Runtime>(sched, net, "umnode");
    runtime->add_mapper(std::make_unique<WsMapper>(registry->listing_url(), library));
    EXPECT_TRUE(runtime->start().ok());
    sched.run_for(seconds(4));
  }
};

TEST(WsMapperTest, DiscoversServiceWithExpectedShape) {
  WsWorld w;
  auto profiles = w.runtime->directory().lookup(core::Query().platform("ws"));
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].device_type, "ws:weather");
  EXPECT_NE(profiles[0].shape.find("query"), nullptr);
  EXPECT_NE(profiles[0].shape.find("report-out"), nullptr);
  EXPECT_NE(profiles[0].shape.find("update-out"), nullptr);
  // The webhook binding auto-subscribed at map time.
  EXPECT_EQ(w.weather->subscriber_count(), 1u);
}

TEST(WsMapperTest, QueryCallEmitsReport) {
  WsWorld w;
  auto profiles = w.runtime->directory().lookup(core::Query().platform("ws"));
  ASSERT_EQ(profiles.size(), 1u);

  auto sink = std::make_unique<core::CollectorDevice>(
      "Display", core::make_sink_shape("in", MimeType::of("text/plain")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{profiles[0].id, "report-out"},
                           core::PortRef{sink_id, "in"})
                  .ok());

  core::Translator* t = w.runtime->translator(profiles[0].id);
  ASSERT_TRUE(
      t->deliver("query", core::Message::text(MimeType::of("text/plain"), "Fujisawa")).ok());
  w.sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 1u);
  EXPECT_EQ(sink_raw->received()[0].msg.body_text(), "report for Fujisawa: sunny, 23C");
}

TEST(WsMapperTest, WebhookUpdatesFlowIntoSemanticSpace) {
  WsWorld w;
  auto profiles = w.runtime->directory().lookup(core::Query().platform("ws"));
  ASSERT_EQ(profiles.size(), 1u);
  auto sink = std::make_unique<core::CollectorDevice>(
      "Log", core::make_sink_shape("in", MimeType::of("text/plain")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{profiles[0].id, "update-out"},
                           core::PortRef{sink_id, "in"})
                  .ok());
  w.weather->notify_subscribers(to_bytes("storm warning"));
  w.sched.run_for(seconds(1));
  ASSERT_EQ(sink_raw->count(), 1u);
  EXPECT_EQ(sink_raw->received()[0].msg.body_text(), "storm warning");
}

// Each mapper restart subscribes a new webhook path. The first notification
// finds three of the four answer 404 and drops them, so each notification
// reaches the one live webhook, once.
TEST(WsMapperTest, RestartsLeaveOneSubscriber) {
  WsWorld w;
  for (int i = 0; i < 3; ++i) {
    w.runtime->stop();
    ASSERT_TRUE(w.runtime->start().ok());
    w.sched.run_for(seconds(4));
  }
  auto profiles = w.runtime->directory().lookup(core::Query().platform("ws"));
  ASSERT_EQ(profiles.size(), 1u);
  auto sink = std::make_unique<core::CollectorDevice>(
      "Log", core::make_sink_shape("in", MimeType::of("text/plain")));
  core::CollectorDevice* sink_raw = sink.get();
  auto sink_id = w.runtime->map(std::move(sink)).take();
  ASSERT_TRUE(w.runtime->transport()
                  .connect(core::PortRef{profiles[0].id, "update-out"},
                           core::PortRef{sink_id, "in"})
                  .ok());
  EXPECT_EQ(w.weather->subscriber_count(), 4u);
  for (const char* update : {"storm", "calm"}) {
    w.weather->notify_subscribers(to_bytes(update));
    w.sched.run_for(seconds(1));
    EXPECT_EQ(w.weather->subscriber_count(), 1u) << update;
    ASSERT_FALSE(sink_raw->received().empty());
    EXPECT_EQ(sink_raw->received().back().msg.body_text(), update);
  }
  EXPECT_EQ(sink_raw->count(), 2u);
}

TEST(WsMapperTest, UnregisteredServiceIsUnmapped) {
  WsWorld w;
  ASSERT_EQ(w.runtime->directory().lookup(core::Query().platform("ws")).size(), 1u);
  ws_unregister(w.net, "svc", w.registry->listing_url(), "weather-1", [](Result<void>) {});
  w.sched.run_for(seconds(5));  // next poll notices
  EXPECT_EQ(w.runtime->directory().lookup(core::Query().platform("ws")).size(), 0u);
}

}  // namespace
}  // namespace umiddle::ws
