// Web-services platform (paper §3.2: "Currently, uMiddle can bridge a range of
// platforms, including ... and various web services").
//
// 2006-flavoured XML-RPC-style services over HTTP:
//
//   POST /rpc
//     <methodCall><methodName>getReport</methodName>
//       <params><param>...base64...</param></params></methodCall>
//   → <methodResponse><param>...base64...</param></methodResponse>
//     (faults: <methodResponse><fault>message</fault></methodResponse>)
//
// Push out of the service is by *webhook*: a subscriber registers a callback
// URL via the built-in `subscribe` method (once per URL, which the first host
// to subscribe it owns); the service then
// POSTs <notification><param>...</param></notification> documents to it. This
// is how the uMiddle mapper gets events out of a web service.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "core/registrations.hpp"
#include "sim/timer.hpp"
#include "upnp/http.hpp"

namespace umiddle::ws {

/// Build / parse the XML-RPC-ish documents (exposed for tests).
std::string encode_method_call(const std::string& method, const Bytes& param);
[[nodiscard]] Result<std::pair<std::string, Bytes>> decode_method_call(std::string_view body);
std::string encode_method_response(const Bytes& param);
std::string encode_fault(const std::string& message);
/// Returns the response param, or an error carrying the fault message.
[[nodiscard]] Result<Bytes> decode_method_response(std::string_view body);
std::string encode_notification(const Bytes& param);
[[nodiscard]] Result<Bytes> decode_notification(std::string_view body);

/// An XML-RPC endpoint with named methods and webhook subscribers.
class WsService {
 public:
  using MethodFn = std::function<Result<Bytes>(const Bytes& param)>;

  WsService(net::Network& net, std::string host, std::uint16_t port, std::string name,
            std::string type);
  ~WsService();
  WsService(const WsService&) = delete;
  WsService& operator=(const WsService&) = delete;

  [[nodiscard]] Result<void> start();
  void stop();

  void export_method(const std::string& method, MethodFn fn);
  /// POST a notification document to every subscriber webhook. A webhook
  /// that answers 404 is unsubscribed; one that cannot be reached stays.
  void notify_subscribers(const Bytes& param);

  const std::string& name() const { return name_; }
  const std::string& type() const { return type_; }
  std::string endpoint_url() const;
  std::size_t subscriber_count() const { return subscribers_.size(); }
  std::uint64_t calls_served() const { return calls_served_; }

 private:
  void handle_rpc(const upnp::HttpRequest& request, upnp::RespondFn respond);
  /// The built-in `subscribe` method, called from `caller`.
  [[nodiscard]] Result<Bytes> subscribe(const Bytes& param, const std::string& caller);

  net::Network& net_;
  std::string host_;
  std::uint16_t port_;
  std::string name_;
  std::string type_;
  upnp::HttpServer http_;
  std::map<std::string, MethodFn> methods_;
  /// Webhook URLs, owned by the host that subscribed each.
  core::Registrations<std::string, std::string> subscribers_;
  std::uint64_t calls_served_ = 0;
  bool started_ = false;
  sim::Lifetime lifetime_;  ///< guards webhook POST callbacks
};

/// One-shot client call to a service's /rpc endpoint.
using CallFn = std::function<void(Result<Bytes>)>;
void ws_call(net::Network& net, const std::string& from_host, const std::string& url,
             const std::string& method, const Bytes& param, CallFn done);

}  // namespace umiddle::ws
