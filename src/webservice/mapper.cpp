#include "webservice/mapper.hpp"

#include "common/log.hpp"

namespace umiddle::ws {
namespace {

constexpr const char* kWeatherUsdl = R"USDL(
<usdl version="1">
  <service platform="ws" match="ws:weather" name="Weather Web Service">
    <shape>
      <digital-port name="query" direction="input" mime="text/plain"
                    description="ask for a report by station name"/>
      <digital-port name="report-out" direction="output" mime="text/plain"/>
      <digital-port name="update-out" direction="output" mime="text/plain"
                    description="unsolicited forecast updates (webhook)"/>
    </shape>
    <bindings>
      <binding port="query" kind="ws-call" emit="report-out">
        <native method="getReport"/>
      </binding>
      <binding port="update-out" kind="ws-webhook">
        <native/>
      </binding>
    </bindings>
  </service>
</usdl>)USDL";

}  // namespace

// --- WsTranslator ----------------------------------------------------------------------

WsTranslator::WsTranslator(WsMapper& mapper, WsEntry entry, const core::UsdlService& usdl)
    : UsdlTranslator(entry.name + " (WS)", usdl), mapper_(mapper), entry_(std::move(entry)) {}

void WsTranslator::on_mapped() {
  for ([[maybe_unused]] const core::UsdlBinding& hook : bindings("ws-webhook")) {
    std::string url = mapper_.register_webhook(*this);
    // Subscribe our webhook with the native service.
    ws_call(mapper_.runtime().network(), mapper_.runtime().host(), entry_.url, "subscribe",
            to_bytes(url), [](Result<Bytes> r) {
              if (!r.ok()) {
                log::Entry(log::Level::warn, "ws")
                    << "subscribe failed: " << r.error().to_string();
              }
            });
  }
}

void WsTranslator::teardown() { mapper_.drop_webhooks(*this); }

Result<void> WsTranslator::deliver(const std::string& port, const core::Message& msg) {
  const core::UsdlBinding* b = find_binding("ws-call", port);
  if (b == nullptr) return make_error(Errc::unsupported, "no ws-call binding for port " + port);
  run_native([this, b, param = msg.payload] {
    ws_call(mapper_.runtime().network(), mapper_.runtime().host(), entry_.url,
            b->native.attr("method"), param, lifetime().guard([this, b](Result<Bytes> result) {
              if (!result.ok()) {
                log::Entry(log::Level::warn, "ws")
                    << "call failed: " << result.error().to_string();
              } else if (!b->emit_port.empty()) {
                core::Message out;
                out.payload = std::move(result).take();
                (void)emit_typed(b->emit_port, std::move(out));
              }
              native_done();
            }));
  });
  return ok_result();
}

void WsTranslator::webhook_receive(const Bytes& param) {
  for (const core::UsdlBinding& b : bindings("ws-webhook")) {
    core::Message msg;
    msg.payload = param;
    (void)emit_typed(b.port, std::move(msg));
  }
}

// --- WsMapper -----------------------------------------------------------------------------

WsMapper::WsMapper(std::string listing_url, const core::UsdlLibrary& library,
                   std::uint16_t webhook_port, sim::Duration poll_interval)
    : Mapper("ws", library), listing_url_(std::move(listing_url)), webhook_port_(webhook_port),
      poll_interval_(poll_interval) {}

void WsMapper::start(core::Runtime& runtime) {
  poll_timer_.emplace(runtime.scheduler(),
                      sim::EventTag{sim::host_id(runtime.host()), sim::tag_id("ws.poll")},
                      [this]() { poll(); });
  webhook_server_ = std::make_unique<upnp::HttpServer>(runtime.network(), runtime.host(),
                                                       webhook_port_);
  webhook_server_->route_prefix(
      "/hook/", [this](const upnp::HttpRequest& req, upnp::RespondFn respond) {
        auto hook = webhooks_.find(req.path);
        if (hook == webhooks_.end()) {
          respond(upnp::HttpResponse::make(404, "Not Found"));
          return;
        }
        auto param = decode_notification(req.body);
        if (!param.ok()) {
          respond(upnp::HttpResponse::make(400, "Bad Request"));
          return;
        }
        hook->second->webhook_receive(param.value());
        respond(upnp::HttpResponse::make(200, "OK"));
      });
  if (auto r = webhook_server_->start(); !r.ok()) {
    log::Entry(log::Level::error, "ws") << "webhook server failed: " << r.error().to_string();
    return;
  }
  poll();
}

void WsMapper::stop() {
  // No poll fires and no listing still in flight lands after this; the
  // runtime unmaps (or, on crash, drops) every translator imported so far.
  poll_timer_.reset();
  lifetime_.reset();
  if (webhook_server_) webhook_server_->stop();
  webhooks_.clear();
}

std::string WsMapper::register_webhook(WsTranslator& translator) {
  std::string path = "/hook/" + std::to_string(next_webhook_++);
  webhooks_[path] = &translator;
  return "http://" + runtime().host() + ":" + std::to_string(webhook_port_) + path;
}

void WsMapper::drop_webhooks(const WsTranslator& translator) {
  std::erase_if(webhooks_, [&](const auto& hook) { return hook.second == &translator; });
}

void WsMapper::poll() {
  ws_list(runtime().network(), runtime().host(), listing_url_,
          lifetime_.guard([this](Result<std::vector<WsEntry>> entries) {
            if (entries.ok()) handle_listing(entries.value());
            poll_timer_->arm(poll_interval_);
          }));
}

void WsMapper::handle_listing(const std::vector<WsEntry>& entries) {
  const sim::TimePoint now = runtime().scheduler().now();
  for (const WsEntry& entry : entries) {
    if (seen(entry.name, now) != nullptr) continue;
    const core::UsdlService* usdl = this->usdl("ws:" + entry.type);
    if (usdl == nullptr) continue;
    import(entry.name, std::make_unique<WsTranslator>(*this, entry, *usdl));
  }
  // Services that vanished from the listing → unmap their translators.
  forget_unseen(now);
}

void register_ws_usdl(core::UsdlLibrary& library) {
  if (auto r = library.add_text(kWeatherUsdl); !r.ok()) std::abort();
}

}  // namespace umiddle::ws
