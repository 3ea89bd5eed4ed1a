// The Java RMI mapper and its generic translator (paper §5.3 uses a "Java RMI
// mapper" to benchmark transport-level bridging).
//
// Discovery: the mapper polls the RMI registry and imports every binding whose
// type string has a USDL document ("rmi:echo" → the echo-service description).
//
// USDL binding kinds understood by this mapper:
//   kind="call"    — an input-port message becomes a synchronous RMI call of
//       native attr method="..." on the service object. While the call is in
//       flight the translator reports not-ready: the transport buffers — this
//       is exactly the narrow-service bottleneck of §5.3.
//   kind="gateway" — the mapper exports a gateway object "umiddle-gw-<name>"
//       and binds it in the registry; the native service pushes into uMiddle
//       by calling native attr method="..." on it, and the payload is emitted
//       from the binding's (output) port.
#pragma once

#include <memory>
#include <optional>

#include "core/umiddle.hpp"
#include "rmi/service.hpp"
#include "sim/timer.hpp"

namespace umiddle::rmi {

class RmiMapper;

class RmiTranslator final : public core::UsdlTranslator {
 public:
  RmiTranslator(RmiMapper& mapper, Binding binding, const core::UsdlService& usdl);

  [[nodiscard]] Result<void> deliver(const std::string& port, const core::Message& msg) override;
  bool ready(const std::string& port) const override;
  void on_mapped() override;

  /// Called by the mapper's gateway server when the native service pushes.
  void gateway_receive(const std::string& method, const Bytes& data);

  const Binding& binding() const { return binding_; }

 private:
  void teardown() override;

  RmiMapper& mapper_;
  Binding binding_;
  std::shared_ptr<RmiConnection> connection_;
};

class RmiMapper final : public core::Mapper {
 public:
  RmiMapper(net::Endpoint registry, const core::UsdlLibrary& library,
            std::uint16_t gateway_port = 1098,
            sim::Duration poll_interval = sim::seconds(1));

  void start(core::Runtime& runtime) override;
  void stop() override;

  // --- base-protocol support used by translators -------------------------------
  net::Network& network() { return runtime().network(); }
  const net::Endpoint& registry() const { return registry_; }
  RmiObjectServer& gateway_server() { return *gateway_; }
  /// Register/unregister a gateway object for a translator.
  void export_gateway(RmiTranslator& translator, const std::string& method);
  void bind_gateway_in_registry(const std::string& service_name);

 private:
  void poll();
  void handle_listing(const std::vector<Binding>& bindings);

  net::Endpoint registry_;
  std::uint16_t gateway_port_;
  sim::Duration poll_interval_;
  std::unique_ptr<RmiObjectServer> gateway_;
  std::unique_ptr<RegistryClient> registry_client_;
  std::optional<sim::Timer> poll_timer_;  ///< next registry poll; set while started
  sim::Lifetime lifetime_;                ///< ends at stop/crash
};

/// Register the built-in USDL document for "rmi:echo" services.
void register_rmi_usdl(core::UsdlLibrary& library);

}  // namespace umiddle::rmi
