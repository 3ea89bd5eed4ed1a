#include "upnp/device.hpp"

#include <cstdio>

#include "common/log.hpp"
#include "common/strings.hpp"

namespace umiddle::upnp {
namespace {

/// Device-relative URL slug for a service (control/event endpoints).
std::string service_slug(const std::string& service_type) {
  // "urn:schemas-upnp-org:service:SwitchPower:1" → "SwitchPower"
  auto parts = strings::split(service_type, ':');
  return parts.size() >= 2 ? parts[parts.size() - 2] : service_type;
}

constexpr std::string_view kSidPrefix = "uuid:sub-";

std::string sid_text(std::uint64_t n) { return std::string(kSidPrefix) + std::to_string(n); }

/// The n of "uuid:sub-<n>"; 0, which names no subscription, for any other text.
std::uint64_t sid_number(std::string_view sid) {
  std::uint64_t n = 0;
  if (!strings::starts_with(sid, kSidPrefix) ||
      !strings::parse_u64(sid.substr(kSidPrefix.size()), n)) {
    return 0;
  }
  return n;
}

}  // namespace

UpnpDevice::UpnpDevice(net::Network& net, std::string host, std::uint16_t port,
                       DeviceDescription description, UpnpCosts costs)
    : net_(net), host_(std::move(host)), port_(port), description_(std::move(description)),
      costs_(costs), http_(net_, host_, port_), ssdp_(net_, host_) {
  std::string base = "http://" + host_ + ":" + std::to_string(port_);
  if (description_.udn.empty()) {
    // A device is addressed by host:port, so that pair (plus the type) names it
    // uniquely and reproducibly; fixed-width hex keeps every advert the same
    // size across runs.
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      sim::tag_id(base + ":" + description_.device_type)));
    description_.udn = "uuid:umiddle-sim-" + std::string(buf);
  }
  // Fill in absolute URLs for every service.
  for (ServiceDescription& svc : description_.services) {
    std::string slug = service_slug(svc.service_type);
    svc.control_url = base + "/control/" + slug;
    svc.event_sub_url = base + "/event/" + slug;
  }
}

UpnpDevice::~UpnpDevice() { stop(); }

std::string UpnpDevice::location() const {
  return "http://" + host_ + ":" + std::to_string(port_) + "/desc.xml";
}

Result<void> UpnpDevice::start() {
  if (started_) return ok_result();
  http_.route("/desc.xml", sync_handler([this](const HttpRequest&) {
                return HttpResponse::make(200, "OK", description_.to_xml_text());
              }));
  for (const ServiceDescription& svc : description_.services) {
    std::string slug = service_slug(svc.service_type);
    std::string service_type = svc.service_type;
    http_.route("/control/" + slug,
                [this, service_type](const HttpRequest& req, RespondFn respond) {
                  handle_control(service_type, req, std::move(respond));
                });
    http_.route("/event/" + slug,
                [this, service_type](const HttpRequest& req, RespondFn respond) {
                  handle_subscription(service_type, req, std::move(respond));
                });
  }
  if (auto r = http_.start(); !r.ok()) return r;
  if (auto r = ssdp_.start(); !r.ok()) {
    http_.stop();
    return r;
  }
  ssdp_.advertise(SsdpAnnouncement{description_.device_type,
                                   description_.udn + "::" + description_.device_type,
                                   location(), true});
  started_ = true;
  return ok_result();
}

void UpnpDevice::stop() {
  if (!started_) return;
  ssdp_.stop();  // multicasts byebye for advertised USNs
  http_.stop();
  started_ = false;
}

void UpnpDevice::on_action(const std::string& service_type, const std::string& action,
                           ActionHandler handler) {
  actions_[{service_type, action}] = std::move(handler);
}

void UpnpDevice::set_state(const std::string& service_type, const std::string& var,
                           const std::string& value) {
  auto key = std::make_pair(service_type, var);
  auto it = state_.find(key);
  if (it != state_.end() && it->second == value) return;  // no change, no event
  state_[key] = value;
  notify_subscribers(service_type, var, value);
}

void UpnpDevice::handle_control(const std::string& /*service_type*/, const HttpRequest& req,
                                RespondFn respond) {
  if (req.method != "POST") {
    respond(HttpResponse::make(405, "Method Not Allowed"));
    return;
  }
  auto request = ActionRequest::from_envelope(req.body, req.header("soapaction"));
  if (!request.ok()) {
    respond(HttpResponse::make(400, "Bad Request", SoapFault{401, "Invalid Action"}.to_envelope()));
    return;
  }
  // Charge SOAP unmarshalling + actuation in virtual time, then run the handler.
  const std::uint32_t key =
      served_.put(Served{std::move(request).take(), std::move(respond)});
  net_.scheduler().schedule_after(costs_.soap_unmarshal + costs_.actuation,
                                  lifetime_.guard([this, key]() { run_action(key); }),
                                  {sim::host_id(host_), sim::tag_id("upnp.action")});
}

void UpnpDevice::run_action(std::uint32_t key) {
  const ActionRequest request = std::move(served_[key].request);
  auto handler = actions_.find({request.service_type, request.action});
  if (handler == actions_.end()) {
    served_.take(key).respond(HttpResponse::make(500, "Internal Server Error",
                                                 SoapFault{401, "Invalid Action"}.to_envelope()));
    return;
  }
  served_[key].result = handler->second(request);
  ++actions_handled_;
  // Charge response marshalling before the bytes leave the device.
  net_.scheduler().schedule_after(costs_.soap_marshal,
                                  lifetime_.guard([this, key]() { send_response(key); }),
                                  {sim::host_id(host_), sim::tag_id("upnp.marshal")});
}

void UpnpDevice::send_response(std::uint32_t key) {
  Served served = served_.take(key);
  if (served.result.ok()) {
    served.respond(HttpResponse::make(200, "OK", served.result.value().to_envelope()));
  } else {
    served.respond(HttpResponse::make(
        500, "Internal Server Error", SoapFault{501, served.result.error().message}.to_envelope()));
  }
}

void UpnpDevice::handle_subscription(const std::string& service_type, const HttpRequest& req,
                                     RespondFn respond) {
  if (req.method == "SUBSCRIBE") {
    std::string callback = req.header("callback");
    // CALLBACK: <http://host:port/path>
    if (callback.size() >= 2 && callback.front() == '<' && callback.back() == '>') {
      callback = callback.substr(1, callback.size() - 2);
    }
    auto uri = Uri::parse(callback);
    if (!uri.ok()) {
      respond(HttpResponse::make(412, "Precondition Failed"));
      return;
    }
    const std::uint64_t sid = next_sid_++;
    subscribers_.add(sid, req.caller, Subscription{service_type, uri.value()});
    HttpResponse resp = HttpResponse::make(200, "OK");
    resp.headers["sid"] = sid_text(sid);
    resp.headers["timeout"] = "Second-1800";
    respond(std::move(resp));
    return;
  }
  if (req.method == "UNSUBSCRIBE") {
    // Only the subscribing host cancels a subscription; any other UNSUBSCRIBE,
    // like one of an unknown SID, is 412 (UPnP DA 1.0 §4.1.3).
    respond(subscribers_.remove(sid_number(req.header("sid")), req.caller)
                ? HttpResponse::make(200, "OK")
                : HttpResponse::make(412, "Precondition Failed"));
    return;
  }
  respond(HttpResponse::make(405, "Method Not Allowed"));
}

void UpnpDevice::notify_subscribers(const std::string& service_type, const std::string& var,
                                    const std::string& value) {
  if (!started_) return;
  PropertySet set;
  set.properties[var] = value;
  std::string body = set.to_xml_text();
  for (const auto& [sid, sub] : subscribers_) {
    if (sub.value.service_type != service_type) continue;
    HttpRequest notify;
    notify.method = "NOTIFY";
    notify.path = sub.value.callback.path;
    notify.headers["nt"] = "upnp:event";
    notify.headers["nts"] = "upnp:propchange";
    notify.headers["sid"] = sid_text(sid);
    notify.headers["content-type"] = "text/xml";
    notify.body = body;
    // A 412 says the subscriber holds no such subscription (its control point
    // restarted or crashed), so it is dropped. A transport failure keeps it.
    auto notified = [this, sid, owner = sub.owner](Result<HttpResponse> r) {
      if (r.ok() && r.value().status == 412) subscribers_.remove(sid, owner);
      if (!r.ok()) {
        log::Entry(log::Level::debug, "gena") << "notify failed: " << r.error().to_string();
      }
    };
    http_fetch(net_, host_, sub.value.callback, std::move(notify), lifetime_.guard(notified));
  }
}

}  // namespace umiddle::upnp
