#include "bluetooth/mapper.hpp"

#include "common/log.hpp"
#include "netsim/exchange.hpp"
#include "xml/xml.hpp"

namespace umiddle::bt {

// --- BtTranslator -----------------------------------------------------------------

BtTranslator::BtTranslator(BtMapper& mapper, BtDeviceInfo device, SdpRecord record,
                           const core::UsdlService& usdl)
    : UsdlTranslator(device.name, usdl), mapper_(mapper), device_(std::move(device)),
      record_(std::move(record)) {}

BtTranslator::~BtTranslator() {
  // Close any spans still open for in-flight native operations: the tracer
  // (world state) outlives this translator, and an unmap mid-transfer must
  // not leave the trace unbalanced.
  obs::Tracer& tracer = mapper_.runtime().network().tracer();
  const sim::TimePoint now = mapper_.runtime().scheduler().now();
  tracer.end_span(native_span_, now);
  for (std::uint64_t span : sink_spans_) tracer.end_span(span, now);
}

void BtTranslator::on_mapped() {
  for (const core::UsdlBinding& binding : usdl().bindings) {
    if (binding.kind == "obex-push-sink") setup_push_sink(binding);
    if (binding.kind == "hid-events") setup_hid_events(binding);
  }
}

void BtTranslator::teardown() {
  if (sink_psm_ != 0) mapper_.adapter().stop_psm(sink_psm_);
  if (hid_channel_) hid_channel_->close();
}

Result<void> BtTranslator::deliver(const std::string& port, const core::Message& msg) {
  if (const core::UsdlBinding* get = find_binding("obex-get", port)) {
    run_native([this, get] { run_obex_get(*get); });
    return ok_result();
  }
  if (const core::UsdlBinding* put = find_binding("obex-put", port)) {
    run_native([this, put, msg]() mutable { run_obex_put(*put, std::move(msg)); });
    return ok_result();
  }
  return make_error(Errc::unsupported, "no input binding for port " + port);
}

void BtTranslator::emit_object(const std::string& port, obex::Object object) {
  core::Message msg;
  msg.payload = std::move(object.data);
  if (!object.name.empty()) msg.meta["filename"] = std::move(object.name);
  (void)emit_typed(port, std::move(msg));
}

void BtTranslator::finish_operation() {
  mapper_.runtime().network().tracer().end_span(native_span_,
                                                mapper_.runtime().scheduler().now());
  native_span_ = 0;
  native_done();
}

Result<net::StreamPtr> BtTranslator::connect_service() {
  return mapper_.medium().l2cap_connect(mapper_.adapter().host(), device_.address, record_.psm);
}

void BtTranslator::run_obex_get(const core::UsdlBinding& binding) {
  mapper_.runtime().network().metrics().counter("bt.obex_gets").inc();
  native_span_ = mapper_.runtime().network().tracer().begin_span(
      0, "native.bt", mapper_.runtime().host(), mapper_.runtime().scheduler().now());
  std::string emit_port = binding.emit_port;
  obex::Client::get(connect_service(), binding.native.attr("type"), "",
                    lifetime().guard([this, emit_port](Result<obex::Object> object) {
                      if (object.ok() && !emit_port.empty()) {
                        emit_object(emit_port, std::move(object).take());
                      } else if (!object.ok()) {
                        log::Entry(log::Level::warn, "bt")
                            << "OBEX GET failed: " << object.error().to_string();
                      }
                      finish_operation();
                    }));
}

void BtTranslator::run_obex_put(const core::UsdlBinding& binding, core::Message msg) {
  mapper_.runtime().network().metrics().counter("bt.obex_puts").inc();
  native_span_ = mapper_.runtime().network().tracer().begin_span(
      msg.trace, "native.bt", mapper_.runtime().host(), mapper_.runtime().scheduler().now());
  obex::Object object;
  object.type = binding.native.attr("type");
  auto name = msg.meta.find("filename");
  object.name = name != msg.meta.end() ? std::move(name->second) : "object";
  object.data = std::move(msg.payload);
  obex::Client::put(connect_service(), std::move(object), lifetime().guard([this](Result<void> r) {
    if (!r.ok()) {
      log::Entry(log::Level::warn, "bt") << "OBEX PUT failed: " << r.error().to_string();
    }
    finish_operation();
  }));
}

void BtTranslator::setup_push_sink(const core::UsdlBinding& binding) {
  sink_psm_ = mapper_.allocate_psm();
  std::string port = binding.port;
  sink_server_ = std::make_unique<obex::Server>(
      lifetime().guard([this, port](obex::Object object) {
        if (!sink_spans_.empty()) {
          mapper_.runtime().network().tracer().end_span(sink_spans_.front(),
                                                        mapper_.runtime().scheduler().now());
          sink_spans_.pop_front();
        }
        emit_object(port, std::move(object));
      }),
      nullptr);
  auto listen = mapper_.adapter().listen_psm(
      sink_psm_, [this](net::StreamPtr stream) {
        sink_spans_.push_back(mapper_.runtime().network().tracer().begin_span(
            0, "native.bt", mapper_.runtime().host(), mapper_.runtime().scheduler().now()));
        sink_server_->attach(std::move(stream));
      });
  if (!listen.ok()) {
    log::Entry(log::Level::warn, "bt") << "sink listen failed: " << listen.error().to_string();
    return;
  }
  // Register ourselves as the device's push target: OBEX PUT of a small
  // registration object carrying "adapter-address:psm".
  obex::Object registration;
  registration.type = binding.native.attr("register");
  registration.name = "push-target";
  registration.data = to_bytes(std::to_string(mapper_.adapter().address()) + ":" +
                               std::to_string(sink_psm_));
  obex::Client::put(connect_service(), std::move(registration), [](Result<void> r) {
    if (!r.ok()) {
      log::Entry(log::Level::warn, "bt")
          << "push registration failed: " << r.error().to_string();
    }
  });
}

void BtTranslator::setup_hid_events(const core::UsdlBinding& binding) {
  auto stream = connect_service();
  if (!stream.ok()) {
    log::Entry(log::Level::warn, "bt")
        << "interrupt channel connect failed: " << stream.error().to_string();
    return;
  }
  hid_channel_ = stream.value();
  hid_port_ = binding.port;
  hid_channel_->on_data(lifetime().guard(net::frames<HidReader>(
      *hid_channel_, [this](const MouseReport& r) { handle_hid_report(r); })));
}

void BtTranslator::handle_hid_report(const MouseReport& r) {
  // Translate the HID report into a VML document (§5.2), charging the
  // 2006-stack translation cost in virtual time. The trace starts here (HID
  // ingress) so the VML span and the downstream path share one id.
  mapper_.runtime().network().metrics().counter("bt.hid_reports").inc();
  obs::Tracer* tracer = &mapper_.runtime().network().tracer();
  const std::uint64_t trace = tracer->new_trace();
  const std::uint64_t span = tracer->begin_span(trace, "translate.vml", mapper_.runtime().host(),
                                                mapper_.runtime().scheduler().now());
  sim::Scheduler* sched = &mapper_.runtime().scheduler();
  mapper_.runtime().scheduler().schedule_after(
      mapper_.costs().vml_translate,
      [this, alive = lifetime().token(), r, tracer, sched, trace, span]() {
        // tracer/sched outlive the translator (world-owned): close the span
        // even if the translator was unmapped while the translation ran.
        tracer->end_span(span, sched->now());
        if (!*alive) return;
        xml::Element vml("vml");
        vml.set_attr("xmlns", "urn:schemas-microsoft-com:vml");
        xml::Element& ev = vml.add_child("event");
        ev.set_attr("type", r.buttons != 0 ? "button" : "move");
        ev.set_attr("buttons", std::to_string(r.buttons));
        ev.set_attr("dx", std::to_string(r.dx));
        ev.set_attr("dy", std::to_string(r.dy));
        core::Message msg = core::Message::text({}, vml.to_string());
        msg.trace = trace;
        (void)emit_typed(hid_port_, std::move(msg));
      },
      {sim::host_id(mapper_.runtime().host()), sim::tag_id("bt.vml")});
}

// --- BtMapper --------------------------------------------------------------------------

BtMapper::BtMapper(BluetoothMedium& medium, const core::UsdlLibrary& library, BtCosts costs)
    : Mapper("bluetooth", library), medium_(medium), costs_(costs) {}

void BtMapper::start(core::Runtime& runtime) {
  if (auto r = medium_.attach_host(runtime.host()); !r.ok()) {
    log::Entry(log::Level::error, "bt") << "cannot join radio: " << r.error().to_string();
    return;
  }
  adapter_ = std::make_unique<BtAdapter>(medium_, runtime.host());
  if (auto r = adapter_->power_on(); !r.ok()) {
    log::Entry(log::Level::error, "bt") << "adapter power-on failed: " << r.error().to_string();
    return;
  }
  listener_tokens_.push_back(
      medium_.add_device_listener([this](const BtDeviceInfo& info) { handle_device(info); }));
  listener_tokens_.push_back(medium_.add_device_gone_listener(
      [this](const BtDeviceInfo& info) { gone(hex_address(info.address)); }));
}

void BtMapper::stop() {
  for (std::uint64_t token : listener_tokens_) medium_.remove_listener(token);
  listener_tokens_.clear();
  if (adapter_) adapter_->power_off();
}

void BtMapper::crash() {
  stop();  // drop medium listeners, take the adapter off the air
  adapter_.reset();
}

void BtMapper::handle_device(const BtDeviceInfo& info) {
  if (adapter_ == nullptr) return;
  if (info.address == adapter_->address()) return;  // ourselves
  if (find(hex_address(info.address)) != nullptr) return;

  // Service-level bridging: SDP query, match records against USDL, import.
  // Discovery span: device seen on the piconet → translator advertised.
  obs::Tracer& tracer = runtime().network().tracer();
  const std::uint64_t span = tracer.begin_span(tracer.new_trace(), "discovery",
                                               runtime().host(), runtime().scheduler().now());
  runtime().network().metrics().counter("bt.sdp_queries").inc();
  sdp_query(medium_, adapter_->host(), info.address, "*",
            [this, info, span](Result<std::vector<SdpRecord>> records) {
              if (!records.ok()) {
                runtime().network().tracer().end_span(span, runtime().scheduler().now());
                log::Entry(log::Level::warn, "bt")
                    << "SDP query failed for " << info.name << ": "
                    << records.error().to_string();
                return;
              }
              for (const SdpRecord& record : records.value()) {
                const core::UsdlService* usdl = this->usdl(record.service_uuid);
                if (usdl == nullptr) continue;
                import(hex_address(info.address),
                       std::make_unique<BtTranslator>(*this, info, record, *usdl),
                       [this, span](Result<TranslatorId> r) {
                         runtime().network().tracer().end_span(span, runtime().scheduler().now());
                         if (!r.ok()) return;
                         runtime().network().metrics().counter("bt.devices_mapped").inc();
                       });
                return;  // one translator per device
              }
              runtime().network().tracer().end_span(span, runtime().scheduler().now());
              log::Entry(log::Level::info, "bt")
                  << "no USDL match for " << info.name << "; not bridged";
            });
}

}  // namespace umiddle::bt
