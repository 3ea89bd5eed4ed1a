#include "webservice/service.hpp"

#include "common/base64.hpp"
#include "common/log.hpp"
#include "xml/parser.hpp"

namespace umiddle::ws {

std::string encode_method_call(const std::string& method, const Bytes& param) {
  xml::Element call("methodCall");
  call.add_child("methodName").set_text(method);
  call.add_child("params").add_child("param").set_text(base64::encode(param));
  return call.to_string(/*declaration=*/true);
}

Result<std::pair<std::string, Bytes>> decode_method_call(std::string_view body) {
  auto doc = xml::parse(body);
  if (!doc.ok()) return doc.error();
  if (doc.value().name() != "methodCall") {
    return make_error(Errc::parse_error, "ws: not a methodCall");
  }
  std::string method(doc.value().child_text("methodName"));
  if (method.empty()) return make_error(Errc::parse_error, "ws: missing methodName");
  Bytes param;
  if (const xml::Element* params = doc.value().child("params"); params != nullptr) {
    if (const xml::Element* p = params->child("param"); p != nullptr) {
      auto decoded = base64::decode(p->text());
      if (!decoded.ok()) return decoded.error();
      param = std::move(decoded).take();
    }
  }
  return std::make_pair(std::move(method), std::move(param));
}

std::string encode_method_response(const Bytes& param) {
  xml::Element resp("methodResponse");
  resp.add_child("param").set_text(base64::encode(param));
  return resp.to_string(/*declaration=*/true);
}

std::string encode_fault(const std::string& message) {
  xml::Element resp("methodResponse");
  resp.add_child("fault").set_text(message);
  return resp.to_string(/*declaration=*/true);
}

Result<Bytes> decode_method_response(std::string_view body) {
  auto doc = xml::parse(body);
  if (!doc.ok()) return doc.error();
  if (doc.value().name() != "methodResponse") {
    return make_error(Errc::parse_error, "ws: not a methodResponse");
  }
  if (const xml::Element* fault = doc.value().child("fault"); fault != nullptr) {
    return make_error(Errc::refused, "ws fault: " + fault->text());
  }
  const xml::Element* param = doc.value().child("param");
  if (param == nullptr) return make_error(Errc::parse_error, "ws: missing param");
  return base64::decode(param->text());
}

std::string encode_notification(const Bytes& param) {
  xml::Element n("notification");
  n.add_child("param").set_text(base64::encode(param));
  return n.to_string(/*declaration=*/true);
}

Result<Bytes> decode_notification(std::string_view body) {
  auto doc = xml::parse(body);
  if (!doc.ok()) return doc.error();
  if (doc.value().name() != "notification") {
    return make_error(Errc::parse_error, "ws: not a notification");
  }
  const xml::Element* param = doc.value().child("param");
  if (param == nullptr) return make_error(Errc::parse_error, "ws: missing param");
  return base64::decode(param->text());
}

// --- WsService --------------------------------------------------------------------

WsService::WsService(net::Network& net, std::string host, std::uint16_t port,
                     std::string name, std::string type)
    : net_(net), host_(std::move(host)), port_(port), name_(std::move(name)),
      type_(std::move(type)), http_(net_, host_, port_) {}

WsService::~WsService() { stop(); }

std::string WsService::endpoint_url() const {
  return "http://" + host_ + ":" + std::to_string(port_) + "/rpc";
}

Result<void> WsService::start() {
  if (started_) return ok_result();
  http_.route("/rpc", [this](const upnp::HttpRequest& req, upnp::RespondFn respond) {
    handle_rpc(req, std::move(respond));
  });
  if (auto r = http_.start(); !r.ok()) return r;
  started_ = true;
  return ok_result();
}

void WsService::stop() {
  if (!started_) return;
  http_.stop();
  started_ = false;
}

void WsService::export_method(const std::string& method, MethodFn fn) {
  methods_[method] = std::move(fn);
}

void WsService::handle_rpc(const upnp::HttpRequest& request, upnp::RespondFn respond) {
  if (request.method != "POST") {
    respond(upnp::HttpResponse::make(405, "Method Not Allowed"));
    return;
  }
  auto call = decode_method_call(request.body);
  if (!call.ok()) {
    respond(upnp::HttpResponse::make(400, "Bad Request", encode_fault(call.error().message)));
    return;
  }
  ++calls_served_;
  const auto& [name, param] = call.value();
  auto method = methods_.find(name);
  // The built-in `subscribe` owns its webhook by the calling host.
  Result<Bytes> result =
      name == "subscribe"        ? subscribe(param, request.caller)
      : method != methods_.end() ? method->second(param)
                                 : make_error(Errc::not_found, "no such method: " + name);
  if (result.ok()) {
    respond(upnp::HttpResponse::make(200, "OK", encode_method_response(result.value())));
  } else {
    respond(upnp::HttpResponse::make(200, "OK", encode_fault(result.error().message)));
  }
}

Result<Bytes> WsService::subscribe(const Bytes& param, const std::string& caller) {
  std::string url = umiddle::to_string(param);
  if (!Uri::parse(url).ok()) return make_error(Errc::invalid_argument, "bad webhook url");
  if (!subscribers_.add(url, caller)) {
    return make_error(Errc::refused, "webhook subscribed by another host");
  }
  return to_bytes("ok");
}

void WsService::notify_subscribers(const Bytes& param) {
  if (!started_) return;
  std::string body = encode_notification(param);
  for (const auto& [url, sub] : subscribers_) {
    auto uri = Uri::parse(url);
    if (!uri.ok()) continue;
    upnp::HttpRequest post;
    post.method = "POST";
    post.path = uri.value().path;
    post.headers["content-type"] = "text/xml";
    post.body = body;
    // A webhook answered 404 is gone (its mapper restarted and hooks anew),
    // so it is dropped. A transport failure keeps it: a partition must not
    // unsubscribe a live mapper.
    auto posted = [this, url, owner = sub.owner](Result<upnp::HttpResponse> r) {
      if (r.ok() && r.value().status == 404) subscribers_.remove(url, owner);
      if (!r.ok()) {
        log::Entry(log::Level::debug, "ws") << "webhook post failed: " << r.error().to_string();
      }
    };
    upnp::http_fetch(net_, host_, uri.value(), std::move(post), lifetime_.guard(posted));
  }
}

void ws_call(net::Network& net, const std::string& from_host, const std::string& url,
             const std::string& method, const Bytes& param, CallFn done) {
  auto uri = Uri::parse(url);
  if (!uri.ok()) {
    done(uri.error());
    return;
  }
  upnp::HttpRequest post;
  post.method = "POST";
  post.path = uri.value().path;
  post.headers["content-type"] = "text/xml";
  post.body = encode_method_call(method, param);
  upnp::http_fetch(net, from_host, uri.value(), std::move(post),
                   [done = std::move(done)](Result<upnp::HttpResponse> r) {
                     if (!r.ok()) {
                       done(r.error());
                       return;
                     }
                     if (r.value().status != 200) {
                       done(make_error(Errc::protocol_error,
                                       "ws: HTTP " + std::to_string(r.value().status)));
                       return;
                     }
                     done(decode_method_response(r.value().body));
                   });
}

}  // namespace umiddle::ws
