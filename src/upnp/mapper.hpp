// The UPnP mapper and its generic, USDL-parameterized translator (paper §3.2,
// §3.4: "it is possible to create a generic translator for the UPnP platform
// which is then mechanically parameterized for any given UPnP device by a USDL
// document describing that device").
//
// USDL binding kinds understood by this mapper:
//   kind="action" — an input-port message invokes a SOAP action. Args may be
//       literals, "$body" (payload as text), "$body64" (payload base64) or
//       "$meta:<key>" (message metadata). With emit="<port>" and
//       emit-arg="<OutArg>" the response argument is emitted from that port.
//   kind="event"  — a GENA state-variable change (native attr var="...") is
//       emitted from the binding's (output) port.
#pragma once

#include <map>
#include <memory>

#include "core/umiddle.hpp"
#include "upnp/control_point.hpp"

namespace umiddle::upnp {

class UpnpMapper;

/// Generic UPnP translator, parameterized by a USDL service description.
class UpnpTranslator final : public core::UsdlTranslator {
 public:
  UpnpTranslator(UpnpMapper& mapper, DeviceDescription description,
                 const core::UsdlService& usdl);

  ~UpnpTranslator() override;

  [[nodiscard]] Result<void> deliver(const std::string& port, const core::Message& msg) override;
  void on_mapped() override;

  /// Virtual time the last completed action spent in the UPnP domain
  /// (SOAP POST dispatch → response parsed); the §5.2 bench reads this.
  sim::Duration last_native_duration() const { return last_native_duration_; }
  const DeviceDescription& device() const { return description_; }

 private:
  /// A queued action: its SOAP arguments are resolved from the message on
  /// delivery, so the native call queue holds no copy of the payload.
  struct Work {
    const core::UsdlBinding* action = nullptr;
    std::map<std::string, std::string> args;
    std::uint64_t trace = 0;
  };

  void teardown() override;
  void run_action();
  std::string resolve_arg(const std::string& value, const core::Message& msg) const;
  const ServiceDescription* service_for(const core::UsdlNative& native) const;

  UpnpMapper& mapper_;
  DeviceDescription description_;
  /// The action being translated or invoked; native calls are serial, so the
  /// scheduled translation reads it here instead of capturing it.
  Work current_;
  sim::TimePoint native_started_{};
  sim::Duration last_native_duration_{0};
  /// Open "native.upnp" span for the in-flight SOAP action (obs tracing).
  std::uint64_t native_span_ = 0;
  std::vector<std::string> subscription_tokens_;
};

/// Discovers UPnP devices via SSDP, fetches their descriptions, and imports
/// them as translators using the USDL library.
class UpnpMapper final : public core::Mapper {
 public:
  explicit UpnpMapper(const core::UsdlLibrary& library, std::uint16_t callback_port = 7902,
                      UpnpCosts costs = {});

  void start(core::Runtime& runtime) override;
  void stop() override;

  // --- base-protocol support used by translators -------------------------------
  ControlPoint& control_point() { return *control_point_; }
  const UpnpCosts& costs() const { return costs_; }

 private:
  void handle_device(const DeviceDescription& description, const std::string& location);

  std::uint16_t callback_port_;
  UpnpCosts costs_;
  std::unique_ptr<ControlPoint> control_point_;
};

/// Register the built-in USDL documents for the emulated UPnP devices
/// (BinaryLight, Clock, AirConditioner, MediaRenderer TV).
void register_upnp_usdl(core::UsdlLibrary& library);

}  // namespace umiddle::upnp
