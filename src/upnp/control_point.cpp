#include "upnp/control_point.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

namespace umiddle::upnp {

ControlPoint::ControlPoint(net::Network& net, std::string host, std::uint16_t callback_port,
                           UpnpCosts costs)
    : net_(net), host_(std::move(host)), callback_port_(callback_port), costs_(costs),
      ssdp_(net_, host_), callback_server_(net_, host_, callback_port_) {}

ControlPoint::~ControlPoint() { stop(); }

Result<void> ControlPoint::start() {
  if (started_) return ok_result();
  ssdp_.on_announcement([this](const SsdpAnnouncement& a) { handle_announcement(a); });
  if (auto r = ssdp_.start(); !r.ok()) return r;
  callback_server_.route_prefix("/gena/", [this](const HttpRequest& req, RespondFn respond) {
    handle_notify(req, std::move(respond));
  });
  if (auto r = callback_server_.start(); !r.ok()) {
    ssdp_.stop();
    return r;
  }
  started_ = true;
  return ok_result();
}

void ControlPoint::stop() {
  if (!started_) return;
  ssdp_.stop();
  callback_server_.stop();
  lifetime_.reset();
  invocations_.clear();
  fetched_.clear();
  started_ = false;
}

void ControlPoint::handle_notify(const HttpRequest& req, RespondFn respond) {
  if (req.method != "NOTIFY") {
    respond(HttpResponse::make(405, "Method Not Allowed"));
    return;
  }
  // A SID this control point does not hold on that path is a subscription it
  // dropped, or one a restarted or crashed predecessor made: 412 tells the
  // device to end it (UPnP DA 1.0 §4.2.1), so each event arrives once.
  auto sub = subscriptions_.find(req.path);
  if (sub == subscriptions_.end() || sub->second.sid.empty() ||
      sub->second.sid != req.header("sid")) {
    respond(HttpResponse::make(412, "Precondition Failed"));
    return;
  }
  auto set = PropertySet::from_xml_text(req.body);
  if (!set.ok()) {
    respond(HttpResponse::make(400, "Bad Request"));
    return;
  }
  sub->second.on_event(set.value());
  respond(HttpResponse::make(200, "OK"));
}

Result<void> ControlPoint::search() { return ssdp_.search("ssdp:all"); }

void ControlPoint::handle_announcement(const SsdpAnnouncement& a) {
  // USN is "uuid:...::urn:device-type"; the UDN is the part before "::".
  std::string udn = a.usn;
  if (std::size_t sep = udn.find("::"); sep != std::string::npos) udn = udn.substr(0, sep);

  if (!a.alive) {
    if (known_.erase(udn) > 0 && on_device_gone_) on_device_gone_(udn);
    return;
  }
  if (known_.count(udn) != 0 || a.location.empty()) return;
  known_.insert(udn);
  fetch_description(udn, a.location);
}

void ControlPoint::fetch_description(const std::string& udn, const std::string& location) {
  auto uri = Uri::parse(location);
  if (!uri.ok()) {
    log::Entry(log::Level::warn, "upnp-cp") << "bad LOCATION: " << location;
    known_.erase(udn);
    return;
  }
  HttpRequest req;
  req.method = "GET";
  req.path = uri.value().path;
  http_fetch(net_, host_, uri.value(), std::move(req),
             lifetime_.guard([this, udn, location](Result<HttpResponse> r) {
               if (!r.ok() || r.value().status != 200) {
                 log::Entry(log::Level::warn, "upnp-cp")
                     << "description fetch failed for " << location;
                 known_.erase(udn);
                 return;
               }
               // Charge CyberLink-era description parsing before reporting.
               const std::uint32_t fetched =
                   fetched_.put(Fetched{udn, location, std::move(r.value().body)});
               net_.scheduler().schedule_after(
                   costs_.description_parse,
                   lifetime_.guard([this, fetched]() { parse_description(fetched); }),
                   {sim::host_id(host_), sim::tag_id("upnp.describe")});
             }));
}

void ControlPoint::parse_description(std::uint32_t fetched) {
  auto [udn, location, body] = fetched_.take(fetched);
  auto desc = DeviceDescription::from_xml_text(body);
  if (!desc.ok()) {
    log::Entry(log::Level::warn, "upnp-cp")
        << "bad description from " << location << ": " << desc.error().to_string();
    known_.erase(udn);
    return;
  }
  if (on_device_) on_device_(desc.value(), location);
}

void ControlPoint::invoke(const std::string& control_url, ActionRequest request,
                          ActionFn done) {
  auto uri = Uri::parse(control_url);
  if (!uri.ok()) {
    done(uri.error());
    return;
  }
  // Charge request marshalling, then POST.
  const std::uint32_t invocation =
      invocations_.put(Invocation{std::move(uri).take(), std::move(request), std::move(done)});
  net_.scheduler().schedule_after(
      costs_.soap_marshal, lifetime_.guard([this, invocation]() { post_action(invocation); }),
      {sim::host_id(host_), sim::tag_id("upnp.marshal")});
}

void ControlPoint::post_action(std::uint32_t invocation) {
  auto [uri, request, done] = invocations_.take(invocation);
  HttpRequest post;
  post.method = "POST";
  post.path = uri.path;
  post.headers["soapaction"] = request.soap_action_header();
  post.headers["content-type"] = "text/xml; charset=\"utf-8\"";
  post.body = std::move(request).to_envelope();
  http_fetch(net_, host_, uri, std::move(post),
             lifetime_.guard([this, done = std::move(done)](Result<HttpResponse> r) {
               if (!r.ok()) {
                 done(r.error());
                 return;
               }
               // Charge response unmarshalling, then parse and report.
               auto resp = std::make_shared<HttpResponse>(std::move(r).take());
               net_.scheduler().schedule_after(
                   costs_.soap_unmarshal,
                   [resp, done]() {
                     if (resp->status == 200) {
                       auto parsed = ActionResponse::from_envelope(resp->body);
                       if (!parsed.ok()) {
                         done(parsed.error());
                       } else {
                         done(std::move(parsed).take());
                       }
                       return;
                     }
                     auto fault = SoapFault::from_envelope(resp->body);
                     if (fault.ok()) {
                       done(make_error(Errc::refused,
                                       "UPnP error " + std::to_string(fault.value().error_code) +
                                           ": " + fault.value().description));
                     } else {
                       done(make_error(Errc::protocol_error,
                                       "HTTP " + std::to_string(resp->status) +
                                           " from control URL"));
                     }
                   },
                   {sim::host_id(host_), sim::tag_id("upnp.marshal")});
             }));
}

std::string ControlPoint::subscribe(const std::string& event_sub_url, EventFn on_event) {
  auto uri = Uri::parse(event_sub_url);
  if (!uri.ok()) {
    log::Entry(log::Level::warn, "upnp-cp") << "bad event URL: " << event_sub_url;
    return {};
  }
  std::string path = "/gena/" + std::to_string(next_callback_++);
  subscriptions_[path] = Subscription{uri.value(), {}, std::move(on_event)};

  HttpRequest sub;
  sub.method = "SUBSCRIBE";
  sub.path = uri.value().path;
  sub.headers["callback"] =
      "<http://" + host_ + ":" + std::to_string(callback_port_) + path + ">";
  sub.headers["nt"] = "upnp:event";
  sub.headers["timeout"] = "Second-1800";
  http_fetch(net_, host_, uri.value(), std::move(sub),
             lifetime_.guard([this, path, event_sub_url](Result<HttpResponse> r) {
               if (!r.ok() || r.value().status != 200) {
                 log::Entry(log::Level::warn, "upnp-cp") << "SUBSCRIBE failed for "
                                                         << event_sub_url;
                 return;
               }
               // Dropped meanwhile: the device ends it at its first NOTIFY.
               auto held = subscriptions_.find(path);
               if (held != subscriptions_.end()) held->second.sid = r.value().header("sid");
             }));
  return path;
}

void ControlPoint::drop_subscription(const std::string& token) {
  auto sub = subscriptions_.find(token);
  if (sub == subscriptions_.end()) return;
  if (!sub->second.sid.empty()) {
    HttpRequest unsubscribe;
    unsubscribe.method = "UNSUBSCRIBE";
    unsubscribe.path = sub->second.event_url.path;
    unsubscribe.headers["sid"] = sub->second.sid;
    http_fetch(net_, host_, sub->second.event_url, std::move(unsubscribe),
               [](Result<HttpResponse> r) {
                 if (!r.ok()) {
                   log::Entry(log::Level::debug, "upnp-cp")
                       << "UNSUBSCRIBE failed: " << r.error().to_string();
                 }
               });
  }
  subscriptions_.erase(sub);
}

}  // namespace umiddle::upnp
