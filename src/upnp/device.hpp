// Emulated UPnP device framework.
//
// Substitutes for the physical/CyberLink-emulated devices of the paper's
// testbed: each device is a netsim host running a real SSDP responder, an HTTP
// server publishing its description document, a SOAP control endpoint, and
// GENA eventing. Processing costs of a 2006-era stack are charged in virtual
// time via UpnpCosts so the §5.2 "150 ms in the UPnP domain" split reproduces.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/slots.hpp"
#include "core/registrations.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "upnp/description.hpp"
#include "upnp/gena.hpp"
#include "upnp/http.hpp"
#include "upnp/soap.hpp"
#include "upnp/ssdp.hpp"

namespace umiddle::upnp {

/// Virtual-time costs of the UPnP stack (device and control-point side).
/// Calibrated so one control action spends ≈150 ms in the UPnP domain (§5.2).
struct UpnpCosts {
  sim::Duration soap_marshal = sim::milliseconds(18);
  sim::Duration soap_unmarshal = sim::milliseconds(18);
  /// The device executing the action (switching the light, ...).
  sim::Duration actuation = sim::milliseconds(75);
  /// Translator-side: uMiddle message → UPnP action object (counted as
  /// uMiddle overhead in §5.2's split).
  sim::Duration action_translate = sim::milliseconds(8);
  /// Mapper-side: parsing a fetched device description.
  sim::Duration description_parse = sim::milliseconds(30);
};

class UpnpDevice {
 public:
  using ActionHandler =
      std::function<Result<ActionResponse>(const ActionRequest& request)>;

  /// `host` must exist in `net`; the device's description/control/event URLs
  /// live under http://host:port/.
  UpnpDevice(net::Network& net, std::string host, std::uint16_t port,
             DeviceDescription description, UpnpCosts costs = {});
  virtual ~UpnpDevice();
  UpnpDevice(const UpnpDevice&) = delete;
  UpnpDevice& operator=(const UpnpDevice&) = delete;

  /// Start HTTP + SSDP and announce ssdp:alive.
  [[nodiscard]] Result<void> start();
  /// Announce ssdp:byebye and stop serving.
  void stop();

  /// Register the implementation of one action.
  void on_action(const std::string& service_type, const std::string& action,
                 ActionHandler handler);

  /// Set an evented state variable; notifies GENA subscribers on change.
  void set_state(const std::string& service_type, const std::string& var,
                 const std::string& value);

  const DeviceDescription& description() const { return description_; }
  std::string location() const;
  const std::string& udn() const { return description_.udn; }
  const UpnpCosts& costs() const { return costs_; }

  std::uint64_t actions_handled() const { return actions_handled_; }
  std::size_t subscriber_count() const { return subscribers_.size(); }

 protected:
  net::Network& net() { return net_; }
  const std::string& host() const { return host_; }

 private:
  /// A control request from its unmarshal to its response: the request until
  /// the action has run, then its result.
  struct Served {
    ActionRequest request;
    RespondFn respond;
    Result<ActionResponse> result = ActionResponse{};
  };

  void handle_control(const std::string& service_type, const HttpRequest& req,
                      RespondFn respond);
  void run_action(std::uint32_t key);
  void send_response(std::uint32_t key);
  void handle_subscription(const std::string& service_type, const HttpRequest& req,
                           RespondFn respond);
  void notify_subscribers(const std::string& service_type, const std::string& var,
                          const std::string& value);

  struct Subscription {
    std::string service_type;
    Uri callback;
  };

  net::Network& net_;
  std::string host_;
  std::uint16_t port_;
  DeviceDescription description_;
  UpnpCosts costs_;
  HttpServer http_;
  SsdpAgent ssdp_;
  bool started_ = false;
  std::map<std::pair<std::string, std::string>, ActionHandler> actions_;
  std::map<std::pair<std::string, std::string>, std::string> state_;
  /// GENA subscriptions by the number n of their SID, "uuid:sub-<n>", so
  /// they are notified in the order they subscribed; owned by the host that
  /// subscribed.
  core::Registrations<std::uint64_t, std::string, Subscription> subscribers_;
  /// Keyed by the pending action or marshal event of each request.
  Slots<Served> served_;
  /// Ends with the device, so an action still in flight when it is
  /// destroyed runs nothing.
  sim::Lifetime lifetime_;
  std::uint64_t actions_handled_ = 0;
  std::uint64_t next_sid_ = 1;
};

}  // namespace umiddle::upnp
