#include "motes/mapper.hpp"

#include "common/log.hpp"
#include "xml/xml.hpp"

namespace umiddle::motes {
namespace {

constexpr const char* kMoteUsdl = R"USDL(
<usdl version="1">
  <service platform="motes" match="mote:light" name="Light Sensor Mote">
    <shape>
      <digital-port name="reading-out" direction="output" mime="application/x-sensor+xml"/>
      <physical-port name="sensor" direction="input" tag="visible/light"/>
    </shape>
    <bindings>
      <binding port="reading-out" kind="am-telemetry"><native/></binding>
    </bindings>
  </service>
  <service platform="motes" match="mote:temperature" name="Temperature Sensor Mote">
    <shape>
      <digital-port name="reading-out" direction="output" mime="application/x-sensor+xml"/>
      <physical-port name="sensor" direction="input" tag="tangible/air"/>
    </shape>
    <bindings>
      <binding port="reading-out" kind="am-telemetry"><native/></binding>
    </bindings>
  </service>
  <service platform="motes" match="mote:humidity" name="Humidity Sensor Mote">
    <shape>
      <digital-port name="reading-out" direction="output" mime="application/x-sensor+xml"/>
      <physical-port name="sensor" direction="input" tag="tangible/air"/>
    </shape>
    <bindings>
      <binding port="reading-out" kind="am-telemetry"><native/></binding>
    </bindings>
  </service>
</usdl>)USDL";

}  // namespace

// --- MoteTranslator ---------------------------------------------------------------

MoteTranslator::MoteTranslator(std::uint16_t mote_id, SensorKind kind,
                               const core::UsdlService& usdl)
    : UsdlTranslator("Mote " + std::to_string(mote_id) + " (" + to_string(kind) + ")", usdl),
      mote_id_(mote_id) {}

Result<void> MoteTranslator::deliver(const std::string& port, const core::Message&) {
  return make_error(Errc::unsupported, "motes are telemetry-only: " + port);
}

void MoteTranslator::handle_reading(const Reading& reading) {
  for (const core::UsdlBinding& b : bindings("am-telemetry")) {
    xml::Element doc("reading");
    doc.set_attr("mote", std::to_string(reading.mote_id));
    doc.set_attr("sensor", to_string(reading.kind));
    doc.set_attr("value", std::to_string(reading.value));
    doc.set_attr("seq", std::to_string(reading.sequence));
    (void)emit_typed(b.port, core::Message::text({}, doc.to_string()));
  }
}

// --- MoteMapper --------------------------------------------------------------------

MoteMapper::MoteMapper(MoteField& field, const core::UsdlLibrary& library,
                       sim::Duration silence_timeout)
    : Mapper("motes", library), field_(field), silence_timeout_(silence_timeout) {}

void MoteMapper::start(core::Runtime& runtime) {
  sweep_timer_.emplace(runtime.scheduler(),
                       sim::EventTag{sim::host_id(runtime.host()), sim::tag_id("motes.sweep")},
                       [this]() { sweep(); });
  if (auto r = field_.attach_gateway(runtime.host()); !r.ok()) {
    log::Entry(log::Level::error, "motes") << "gateway attach failed: "
                                           << r.error().to_string();
    return;
  }
  auto bind = runtime.network().udp_bind(
      {runtime.host(), kAmPort},
      [this](net::UdpSocket, const Bytes& payload) { handle_packet(payload); });
  if (!bind.ok()) {
    log::Entry(log::Level::error, "motes") << "AM bind failed: " << bind.error().to_string();
    return;
  }
  socket_ = bind.value();
  sweep();
}

void MoteMapper::stop() {
  sweep_timer_.reset();
  if (socket_) runtime().network().udp_close(*std::exchange(socket_, std::nullopt));
}

void MoteMapper::handle_packet(const Bytes& payload) {
  auto reading = Reading::decode(payload);
  if (!reading.ok()) return;  // radio noise
  const Reading& r = reading.value();

  const std::string key = std::to_string(r.mote_id);
  if (const Import* known = seen(key, runtime().scheduler().now())) {
    if (!known->id) return;  // still importing
    if (auto* t = dynamic_cast<MoteTranslator*>(runtime().translator(*known->id))) {
      t->handle_reading(r);
    }
    return;
  }
  const core::UsdlService* usdl = this->usdl("mote:" + std::string(to_string(r.kind)));
  if (usdl == nullptr) return;
  import(key, std::make_unique<MoteTranslator>(r.mote_id, r.kind, *usdl));
}

void MoteMapper::sweep() {
  // A mote silent for longer than the timeout is gone (motes never say bye).
  forget_unseen(runtime().scheduler().now() - silence_timeout_);
  sweep_timer_->arm(silence_timeout_ / 2);
}

void register_motes_usdl(core::UsdlLibrary& library) {
  if (auto r = library.add_text(kMoteUsdl); !r.ok()) std::abort();
}

}  // namespace umiddle::motes
