#include "webservice/registry.hpp"

#include "common/log.hpp"
#include "xml/parser.hpp"

namespace umiddle::ws {
namespace {

xml::Element entry_to_xml(const WsEntry& entry) {
  xml::Element e("service");
  e.set_attr("name", entry.name);
  e.set_attr("type", entry.type);
  e.set_attr("url", entry.url);
  return e;
}

Result<WsEntry> entry_from_xml(const xml::Element& e) {
  if (e.name() != "service") return make_error(Errc::parse_error, "ws: expected <service>");
  WsEntry entry{std::string(e.attr("name")), std::string(e.attr("type")),
                std::string(e.attr("url"))};
  if (entry.name.empty()) return make_error(Errc::parse_error, "ws: service missing name");
  return entry;
}

}  // namespace

WsRegistry::WsRegistry(net::Network& net, std::string host, std::uint16_t port)
    : net_(net), host_(std::move(host)), port_(port), http_(net_, host_, port_) {}

WsRegistry::~WsRegistry() { stop(); }

std::string WsRegistry::listing_url() const {
  return "http://" + host_ + ":" + std::to_string(port_) + "/services.xml";
}

Result<void> WsRegistry::start() {
  if (started_) return ok_result();
  http_.route("/services.xml", upnp::sync_handler([this](const upnp::HttpRequest&) {
                xml::Element root("services");
                for (const auto& [name, e] : entries_) root.add_child(entry_to_xml(e.value));
                return upnp::HttpResponse::make(200, "OK", root.to_string(/*declaration=*/true));
              }));
  http_.route("/register", upnp::sync_handler([this](const upnp::HttpRequest& req) {
                auto doc = xml::parse(req.body);
                if (!doc.ok()) return upnp::HttpResponse::make(400, "Bad Request");
                auto entry = entry_from_xml(doc.value());
                if (!entry.ok()) return upnp::HttpResponse::make(400, "Bad Request");
                return entries_.add(entry.value().name, req.caller, entry.value())
                           ? upnp::HttpResponse::make(200, "OK")
                           : upnp::HttpResponse::make(409, "Conflict");
              }));
  http_.route("/unregister", upnp::sync_handler([this](const upnp::HttpRequest& req) {
                auto doc = xml::parse(req.body);
                if (!doc.ok()) return upnp::HttpResponse::make(400, "Bad Request");
                return entries_.remove(std::string(doc.value().attr("name")), req.caller)
                           ? upnp::HttpResponse::make(200, "OK")
                           : upnp::HttpResponse::make(403, "Forbidden");
              }));
  if (auto r = http_.start(); !r.ok()) return r;
  started_ = true;
  return ok_result();
}

void WsRegistry::stop() {
  if (!started_) return;
  http_.stop();
  started_ = false;
}

namespace {

void post_document(net::Network& net, const std::string& from_host, const std::string& base_url,
                   const std::string& path, std::string body,
                   std::function<void(Result<void>)> done) {
  auto uri = Uri::parse(base_url);
  if (!uri.ok()) {
    done(uri.error());
    return;
  }
  Uri target = uri.value();
  target.path = path;
  upnp::HttpRequest post;
  post.method = "POST";
  post.path = path;
  post.headers["content-type"] = "text/xml";
  post.body = std::move(body);
  upnp::http_fetch(net, from_host, target, std::move(post),
                   [done = std::move(done)](Result<upnp::HttpResponse> r) {
                     if (!r.ok()) {
                       done(r.error());
                     } else if (r.value().status != 200) {
                       done(make_error(Errc::refused,
                                       "registry HTTP " + std::to_string(r.value().status)));
                     } else {
                       done(ok_result());
                     }
                   });
}

}  // namespace

void ws_register(net::Network& net, const std::string& from_host,
                 const std::string& listing_url, const WsEntry& entry,
                 std::function<void(Result<void>)> done) {
  post_document(net, from_host, listing_url, "/register",
                entry_to_xml(entry).to_string(/*declaration=*/true), std::move(done));
}

void ws_unregister(net::Network& net, const std::string& from_host,
                   const std::string& listing_url, const std::string& name,
                   std::function<void(Result<void>)> done) {
  xml::Element e("service");
  e.set_attr("name", name);
  post_document(net, from_host, listing_url, "/unregister", e.to_string(/*declaration=*/true),
                std::move(done));
}

void ws_list(net::Network& net, const std::string& from_host, const std::string& listing_url,
             std::function<void(Result<std::vector<WsEntry>>)> done) {
  auto uri = Uri::parse(listing_url);
  if (!uri.ok()) {
    done(uri.error());
    return;
  }
  upnp::HttpRequest get;
  get.method = "GET";
  get.path = uri.value().path;
  upnp::http_fetch(net, from_host, uri.value(), std::move(get),
                   [done = std::move(done)](Result<upnp::HttpResponse> r) {
                     if (!r.ok()) {
                       done(r.error());
                       return;
                     }
                     auto doc = xml::parse(r.value().body);
                     if (!doc.ok()) {
                       done(doc.error());
                       return;
                     }
                     std::vector<WsEntry> out;
                     for (const xml::Element* e : doc.value().children_named("service")) {
                       auto entry = entry_from_xml(*e);
                       if (!entry.ok()) {
                         done(entry.error());
                         return;
                       }
                       out.push_back(std::move(entry).take());
                     }
                     done(std::move(out));
                   });
}

}  // namespace umiddle::ws
