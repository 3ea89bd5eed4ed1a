// The web-services mapper and its generic translator.
//
// Discovery: polls the UDDI-lite registry document; services whose type string
// has a USDL document ("ws:<type>") are imported.
//
// USDL binding kinds understood by this mapper:
//   kind="ws-call"    — an input-port message becomes an XML-RPC call of
//       native attr method="..."; with emit="<port>", the response param is
//       emitted from that (output) port.
//   kind="ws-webhook" — the mapper runs a webhook HTTP server on the runtime
//       host; the translator subscribes it to the service, and incoming
//       notification documents are emitted from the binding's port.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/umiddle.hpp"
#include "sim/timer.hpp"
#include "webservice/registry.hpp"
#include "webservice/service.hpp"

namespace umiddle::ws {

class WsMapper;

class WsTranslator final : public core::UsdlTranslator {
 public:
  WsTranslator(WsMapper& mapper, WsEntry entry, const core::UsdlService& usdl);

  [[nodiscard]] Result<void> deliver(const std::string& port, const core::Message& msg) override;
  void on_mapped() override;

  /// Called by the mapper's webhook server.
  void webhook_receive(const Bytes& param);

  const WsEntry& entry() const { return entry_; }

 private:
  void teardown() override;

  WsMapper& mapper_;
  WsEntry entry_;
};

class WsMapper final : public core::Mapper {
 public:
  WsMapper(std::string listing_url, const core::UsdlLibrary& library,
           std::uint16_t webhook_port = 8801,
           sim::Duration poll_interval = sim::seconds(2));

  void start(core::Runtime& runtime) override;
  void stop() override;

  /// Register a webhook path for a translator; returns the full URL.
  std::string register_webhook(WsTranslator& translator);
  /// Drop every webhook path registered for a translator.
  void drop_webhooks(const WsTranslator& translator);

 private:
  void poll();
  void handle_listing(const std::vector<WsEntry>& entries);

  std::string listing_url_;
  std::uint16_t webhook_port_;
  sim::Duration poll_interval_;
  std::unique_ptr<upnp::HttpServer> webhook_server_;
  std::map<std::string, WsTranslator*> webhooks_;  ///< path → translator
  std::uint64_t next_webhook_ = 1;
  std::optional<sim::Timer> poll_timer_;  ///< next listing poll; set while started
  sim::Lifetime lifetime_;                ///< ends at stop/crash
};

/// Built-in USDL for the demo "weather" web service type.
void register_ws_usdl(core::UsdlLibrary& library);

}  // namespace umiddle::ws
