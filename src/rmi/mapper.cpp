#include "rmi/mapper.hpp"

#include "common/log.hpp"

namespace umiddle::rmi {
namespace {

constexpr const char* kEchoUsdl = R"USDL(
<usdl version="1">
  <service platform="rmi" match="rmi:echo" name="Java RMI Service">
    <shape>
      <digital-port name="data-in" direction="input" mime="*/*"
                    description="delivered to the service as a synchronous RMI call"/>
      <digital-port name="data-out" direction="output" mime="application/octet-stream"
                    description="pushed by the service through the uMiddle gateway"/>
    </shape>
    <bindings>
      <binding port="data-in" kind="call">
        <native method="deliver"/>
      </binding>
      <binding port="data-out" kind="gateway">
        <native method="send"/>
      </binding>
    </bindings>
  </service>
</usdl>)USDL";

}  // namespace

// --- RmiTranslator ---------------------------------------------------------------------

RmiTranslator::RmiTranslator(RmiMapper& mapper, Binding binding,
                             const core::UsdlService& usdl)
    : UsdlTranslator(binding.name + " (RMI)", usdl), mapper_(mapper),
      binding_(std::move(binding)) {}

void RmiTranslator::on_mapped() {
  // Persistent connection to the native service (real RMI stubs cache these).
  auto stream = mapper_.network().connect(mapper_.runtime().host(),
                                          {binding_.host, binding_.port});
  if (!stream.ok()) {
    log::Entry(log::Level::warn, "rmi")
        << "cannot reach service " << binding_.name << ": " << stream.error().to_string();
    return;
  }
  connection_ = std::make_shared<RmiConnection>(stream.value());

  // Export + advertise the gateway for every gateway binding.
  for (const core::UsdlBinding& b : bindings("gateway")) {
    mapper_.export_gateway(*this, b.native.attr("method"));
    mapper_.bind_gateway_in_registry(binding_.name);
  }
}

void RmiTranslator::teardown() {
  mapper_.gateway_server().remove_object("umiddle-gw-" + binding_.name);
  connection_ = nullptr;  // its destructor closes the stream
}

bool RmiTranslator::ready(const std::string& port) const {
  return connection_ != nullptr && UsdlTranslator::ready(port);
}

Result<void> RmiTranslator::deliver(const std::string& port, const core::Message& msg) {
  if (connection_ == nullptr) {
    return make_error(Errc::disconnected, "rmi: no connection to " + binding_.name);
  }
  const core::UsdlBinding* b = find_binding("call", port);
  if (b == nullptr) return make_error(Errc::unsupported, "no call binding for port " + port);
  run_native([this, call = Call{binding_.name, b->native.attr("method"), msg.payload}]() mutable {
    connection_->call(std::move(call), lifetime().guard([this](Result<Return> r) {
      if (!r.ok()) {
        log::Entry(log::Level::warn, "rmi") << "call failed: " << r.error().to_string();
      } else if (r.value().exception) {
        log::Entry(log::Level::warn, "rmi")
            << "remote exception: " << umiddle::to_string(r.value().value);
      }
      native_done();
    }));
  });
  return ok_result();
}

void RmiTranslator::gateway_receive(const std::string& method, const Bytes& data) {
  for (const core::UsdlBinding& b : bindings("gateway")) {
    if (b.native.attr("method") != method) continue;
    core::Message msg;
    msg.payload = data;
    (void)emit_typed(b.port, std::move(msg));
  }
}

// --- RmiMapper --------------------------------------------------------------------------

RmiMapper::RmiMapper(net::Endpoint registry, const core::UsdlLibrary& library,
                     std::uint16_t gateway_port, sim::Duration poll_interval)
    : Mapper("rmi", library), registry_(std::move(registry)), gateway_port_(gateway_port),
      poll_interval_(poll_interval) {}

void RmiMapper::start(core::Runtime& runtime) {
  poll_timer_.emplace(runtime.scheduler(),
                      sim::EventTag{sim::host_id(runtime.host()), sim::tag_id("rmi.poll")},
                      [this]() { poll(); });
  gateway_ = std::make_unique<RmiObjectServer>(runtime.network(), runtime.host(),
                                               gateway_port_);
  if (auto r = gateway_->start(); !r.ok()) {
    log::Entry(log::Level::error, "rmi") << "gateway start failed: " << r.error().to_string();
    return;
  }
  registry_client_ =
      std::make_unique<RegistryClient>(runtime.network(), runtime.host(), registry_);
  poll();
}

void RmiMapper::stop() {
  // No poll fires and no listing still in flight lands after this; the
  // runtime unmaps (or, on crash, drops) every translator imported so far.
  poll_timer_.reset();
  lifetime_.reset();
  if (gateway_) gateway_->stop();
}

void RmiMapper::poll() {
  registry_client_->list(lifetime_.guard([this](Result<std::vector<Binding>> bindings) {
    if (bindings.ok()) handle_listing(bindings.value());
    poll_timer_->arm(poll_interval_);
  }));
}

void RmiMapper::handle_listing(const std::vector<Binding>& bindings) {
  const sim::TimePoint now = runtime().scheduler().now();
  for (const Binding& binding : bindings) {
    if (binding.name.rfind("umiddle-gw-", 0) == 0) continue;  // our own gateways
    if (seen(binding.name, now) != nullptr) continue;
    const core::UsdlService* usdl = this->usdl(binding.type);
    if (usdl == nullptr) continue;
    import(binding.name, std::make_unique<RmiTranslator>(*this, binding, *usdl));
  }
  // Bindings that vanished from the registry → unmap their translators.
  forget_unseen(now);
}

void RmiMapper::export_gateway(RmiTranslator& translator, const std::string& method) {
  std::string object = "umiddle-gw-" + translator.binding().name;
  RmiTranslator* raw = &translator;
  gateway_->export_method(object, method,
                          [raw, method](const Bytes& args, const std::string&) -> Result<Bytes> {
                            raw->gateway_receive(method, args);
                            return to_bytes("ok");
                          });
}

void RmiMapper::bind_gateway_in_registry(const std::string& service_name) {
  registry_client_->bind(
      Binding{"umiddle-gw-" + service_name, "umiddle:gateway", runtime().host(), gateway_port_},
      [](Result<void> r) {
        if (!r.ok()) {
          log::Entry(log::Level::warn, "rmi")
              << "gateway bind failed: " << r.error().to_string();
        }
      });
}

void register_rmi_usdl(core::UsdlLibrary& library) {
  if (auto r = library.add_text(kEchoUsdl); !r.ok()) std::abort();
}

}  // namespace umiddle::rmi
