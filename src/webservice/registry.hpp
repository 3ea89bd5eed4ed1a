// UDDI-lite service registry for the web-services platform: an HTTP document
// of registered services, with register/unregister posts.
//
//   GET  /services.xml → <services><service name=".." type=".." url=".."/>…</services>
//   POST /register     (body: one <service .../> element)
//   POST /unregister   (body: <service name=".."/>)
//
// A name belongs to the host that registered it: only that host registers
// over it (else 409) or unregisters it (else 403).
#pragma once

#include "core/registrations.hpp"
#include "upnp/http.hpp"

namespace umiddle::ws {

struct WsEntry {
  std::string name;
  std::string type;  ///< matched against USDL "ws:<type>" keys
  std::string url;   ///< the service's /rpc endpoint
};

class WsRegistry {
 public:
  WsRegistry(net::Network& net, std::string host, std::uint16_t port = 8800);
  ~WsRegistry();
  WsRegistry(const WsRegistry&) = delete;
  WsRegistry& operator=(const WsRegistry&) = delete;

  [[nodiscard]] Result<void> start();
  void stop();

  std::size_t size() const { return entries_.size(); }
  std::string listing_url() const;

 private:
  net::Network& net_;
  std::string host_;
  std::uint16_t port_;
  upnp::HttpServer http_;
  /// Name → its entry, owned by the registering host.
  core::Registrations<std::string, std::string, WsEntry> entries_;
  bool started_ = false;
};

/// Client helpers.
void ws_register(net::Network& net, const std::string& from_host,
                 const std::string& listing_url, const WsEntry& entry,
                 std::function<void(Result<void>)> done);
void ws_unregister(net::Network& net, const std::string& from_host,
                   const std::string& listing_url, const std::string& name,
                   std::function<void(Result<void>)> done);
void ws_list(net::Network& net, const std::string& from_host, const std::string& listing_url,
             std::function<void(Result<std::vector<WsEntry>>)> done);

}  // namespace umiddle::ws
