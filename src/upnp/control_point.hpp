// UPnP control point: the base-protocol support the UPnP mapper provides to
// its translators (paper §3.2 — the mapper "contains a base-protocol support
// for the target platform, such as ... SOAP in the case of UPnP").
//
// Capabilities: SSDP search/listen, description fetch, SOAP action invocation
// (with virtual-time marshal/unmarshal costs), and GENA subscriptions with a
// local HTTP callback server.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/slots.hpp"
#include "sim/timer.hpp"
#include "upnp/description.hpp"
#include "upnp/device.hpp"
#include "upnp/gena.hpp"
#include "upnp/http.hpp"
#include "upnp/soap.hpp"
#include "upnp/ssdp.hpp"

namespace umiddle::upnp {

class ControlPoint {
 public:
  using DeviceFn = std::function<void(const DeviceDescription&, const std::string& location)>;
  using DeviceGoneFn = std::function<void(const std::string& udn)>;
  using ActionFn = std::function<void(Result<ActionResponse>)>;
  using EventFn = std::function<void(const PropertySet&)>;

  ControlPoint(net::Network& net, std::string host, std::uint16_t callback_port = 7902,
               UpnpCosts costs = {});
  ~ControlPoint();
  ControlPoint(const ControlPoint&) = delete;
  ControlPoint& operator=(const ControlPoint&) = delete;

  [[nodiscard]] Result<void> start();
  void stop();

  void on_device(DeviceFn fn) { on_device_ = std::move(fn); }
  void on_device_gone(DeviceGoneFn fn) { on_device_gone_ = std::move(fn); }

  /// Multicast an M-SEARCH for everything.
  [[nodiscard]] Result<void> search();

  /// POST a SOAP action to a control URL. Marshal/unmarshal costs are charged
  /// in virtual time on this (control-point) side.
  void invoke(const std::string& control_url, ActionRequest request, ActionFn done);

  /// GENA-subscribe to a service's events; `on_event` fires per NOTIFY that
  /// carries the SID the SUBSCRIBE response returned. Returns a token for
  /// drop_subscription.
  std::string subscribe(const std::string& event_sub_url, EventFn on_event);
  /// Stop dispatching events for a subscription token and UNSUBSCRIBE it at
  /// the device. One whose SID has not come back yet is ended by the device
  /// when its first NOTIFY is answered 412.
  void drop_subscription(const std::string& token);

  const UpnpCosts& costs() const { return costs_; }

 private:
  /// An action between invoke() and its POST, while the marshal cost runs.
  struct Invocation {
    Uri uri;
    ActionRequest request;
    ActionFn done;
  };
  /// A GENA subscription: where it was made, the SID the device returned
  /// (empty until the SUBSCRIBE response arrives) and its event handler.
  struct Subscription {
    Uri event_url;
    std::string sid;
    EventFn on_event;
  };
  /// A fetched description document, while its parse cost runs.
  struct Fetched {
    std::string udn;
    std::string location;
    std::string body;
  };

  void handle_announcement(const SsdpAnnouncement& a);
  void fetch_description(const std::string& udn, const std::string& location);
  void parse_description(std::uint32_t fetched);
  void post_action(std::uint32_t invocation);
  void handle_notify(const HttpRequest& req, RespondFn respond);

  net::Network& net_;
  std::string host_;
  std::uint16_t callback_port_;
  UpnpCosts costs_;
  SsdpAgent ssdp_;
  HttpServer callback_server_;
  bool started_ = false;
  std::set<std::string> known_;    ///< UDNs already reported (or being fetched)
  std::map<std::string, Subscription> subscriptions_;  ///< callback path → subscription
  std::uint64_t next_callback_ = 1;
  DeviceFn on_device_;
  DeviceGoneFn on_device_gone_;
  /// Keyed by the marshal event that will post each; cleared by stop(),
  /// which ends those events.
  Slots<Invocation> invocations_;
  /// Keyed by the parse event that will report each; cleared by stop().
  Slots<Fetched> fetched_;
  /// Guards fetch, parse and SOAP completions; reset by stop().
  sim::Lifetime lifetime_;
};

}  // namespace umiddle::upnp
