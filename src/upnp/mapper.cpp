#include "upnp/mapper.hpp"

#include "common/base64.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace umiddle::upnp {

// --- UpnpTranslator -----------------------------------------------------------------

UpnpTranslator::UpnpTranslator(UpnpMapper& mapper, DeviceDescription description,
                               const core::UsdlService& usdl)
    : UsdlTranslator(description.friendly_name, usdl), mapper_(mapper),
      description_(std::move(description)) {}

UpnpTranslator::~UpnpTranslator() {
  // The tracer (world state) outlives this translator: close the span of any
  // SOAP action still in flight so an unmap never leaves the trace unbalanced.
  mapper_.runtime().network().tracer().end_span(native_span_,
                                                mapper_.runtime().scheduler().now());
}

const ServiceDescription* UpnpTranslator::service_for(const core::UsdlNative& native) const {
  std::string slug = native.attr("service");
  for (const ServiceDescription& svc : description_.services) {
    if (svc.service_type.find(":service:" + slug + ":") != std::string::npos) return &svc;
  }
  return nullptr;
}

std::string UpnpTranslator::resolve_arg(const std::string& value,
                                        const core::Message& msg) const {
  if (value == "$body") return msg.body_text();
  if (value == "$body64") return base64::encode(msg.payload);
  if (strings::starts_with(value, "$meta:")) {
    auto it = msg.meta.find(value.substr(6));
    return it == msg.meta.end() ? std::string() : it->second;
  }
  return value;
}

Result<void> UpnpTranslator::deliver(const std::string& port, const core::Message& msg) {
  const core::UsdlBinding* action = find_binding("action", port);
  if (action == nullptr) {
    return make_error(Errc::unsupported, "no action binding for port " + port);
  }
  Work work{action, {}, msg.trace};
  for (const core::UsdlArg& arg : action->native.args) {
    work.args[arg.name] = resolve_arg(arg.value, msg);
  }
  run_native([this, work = std::move(work)]() mutable {
    current_ = std::move(work);
    // Translate the uMiddle message into a UPnP action object (uMiddle-side
    // cost in the paper's §5.2 split), then invoke over SOAP.
    mapper_.runtime().network().metrics().counter("upnp.action_translations").inc();
    mapper_.runtime().scheduler().schedule_after(
        mapper_.costs().action_translate, lifetime().guard([this]() { run_action(); }),
        {sim::host_id(mapper_.runtime().host()), sim::tag_id("upnp.action")});
  });
  return ok_result();
}

void UpnpTranslator::run_action() {
  const core::UsdlBinding& binding = *current_.action;
  const ServiceDescription* svc = service_for(binding.native);
  if (svc == nullptr) {
    log::Entry(log::Level::warn, "upnp")
        << "device " << profile().name << " lacks service " << binding.native.attr("service");
    native_done();
    return;
  }
  ActionRequest request;
  request.service_type = svc->service_type;
  request.action = binding.native.attr("action");
  request.args = std::move(current_.args);
  native_started_ = mapper_.runtime().scheduler().now();
  // Time spent in the UPnP domain (SOAP dispatch → response) as a span, so the
  // camera→TV decomposition separates native-protocol time from uMiddle time.
  mapper_.runtime().network().metrics().counter("upnp.soap_actions").inc();
  native_span_ = mapper_.runtime().network().tracer().begin_span(
      current_.trace, "native.upnp", mapper_.runtime().host(), native_started_);
  std::string emit_port = binding.emit_port;
  std::string emit_arg = binding.native.attr("emit-arg");
  mapper_.control_point().invoke(
      svc->control_url, std::move(request),
      lifetime().guard([this, emit_port, emit_arg](Result<ActionResponse> result) {
        last_native_duration_ = mapper_.runtime().scheduler().now() - native_started_;
        mapper_.runtime().network().tracer().end_span(native_span_,
                                                      mapper_.runtime().scheduler().now());
        native_span_ = 0;
        if (!result.ok()) {
          log::Entry(log::Level::warn, "upnp")
              << "action failed on " << profile().name << ": " << result.error().to_string();
        } else if (!emit_port.empty()) {
          const auto& args = result.value().args;
          auto it = args.find(emit_arg);
          (void)emit_typed(emit_port, core::Message::text({}, it == args.end() ? "" : it->second));
        }
        native_done();
      }));
}

void UpnpTranslator::on_mapped() {
  // Subscribe once per service that has event bindings; fan events out to the
  // bound output ports.
  std::set<std::string> subscribed;
  for (const core::UsdlBinding& binding : bindings("event")) {
    const ServiceDescription* svc = service_for(binding.native);
    if (svc == nullptr || subscribed.count(svc->service_type) != 0) continue;
    subscribed.insert(svc->service_type);
    subscription_tokens_.push_back(mapper_.control_point().subscribe(
        svc->event_sub_url, lifetime().guard([this](const PropertySet& set) {
          mapper_.runtime().network().metrics().counter("upnp.gena_events").inc();
          for (const auto& [var, value] : set.properties) {
            for (const core::UsdlBinding& b : bindings("event")) {
              if (b.native.attr("var") == var) {
                (void)emit_typed(b.port, core::Message::text({}, value));
              }
            }
          }
        })));
  }
}

void UpnpTranslator::teardown() {
  for (const std::string& token : subscription_tokens_) {
    mapper_.control_point().drop_subscription(token);
  }
  subscription_tokens_.clear();
}

// --- UpnpMapper -----------------------------------------------------------------------

UpnpMapper::UpnpMapper(const core::UsdlLibrary& library, std::uint16_t callback_port,
                       UpnpCosts costs)
    : Mapper("upnp", library), callback_port_(callback_port), costs_(costs) {}

void UpnpMapper::start(core::Runtime& runtime) {
  control_point_ = std::make_unique<ControlPoint>(runtime.network(), runtime.host(),
                                                  callback_port_, costs_);
  control_point_->on_device(
      [this](const DeviceDescription& d, const std::string& l) { handle_device(d, l); });
  control_point_->on_device_gone([this](const std::string& udn) { gone(udn); });
  if (auto r = control_point_->start(); !r.ok()) {
    log::Entry(log::Level::error, "upnp") << "control point failed: " << r.error().to_string();
    return;
  }
  (void)control_point_->search();
}

void UpnpMapper::stop() {
  if (control_point_) control_point_->stop();
}

void UpnpMapper::handle_device(const DeviceDescription& description,
                               const std::string& location) {
  if (find(description.udn) != nullptr) return;
  const core::UsdlService* usdl = this->usdl(description.device_type);
  if (usdl == nullptr) {
    log::Entry(log::Level::info, "upnp")
        << "no USDL for device type " << description.device_type << " (" << location
        << "); not bridged";
    return;
  }
  // Discovery span: SSDP description in hand → translator instantiated and
  // advertised (the paper's Fig. 10 "device bridged" latency).
  obs::Tracer& tracer = runtime().network().tracer();
  const std::uint64_t span = tracer.begin_span(tracer.new_trace(), "discovery",
                                               runtime().host(), runtime().scheduler().now());
  import(description.udn, std::make_unique<UpnpTranslator>(*this, description, *usdl),
         [this, udn = description.udn, span](Result<TranslatorId> r) {
           runtime().network().tracer().end_span(span, runtime().scheduler().now());
           if (!r.ok()) return;
           runtime().network().metrics().counter("upnp.devices_mapped").inc();
           log::Entry(log::Level::info, "upnp") << "mapped UPnP device " << udn;
         });
}

}  // namespace umiddle::upnp
