#include "upnp/http.hpp"

#include "common/strings.hpp"
#include "netsim/exchange.hpp"

namespace umiddle::upnp {
namespace {

std::string find_header(const std::map<std::string, std::string>& headers,
                        std::string_view name) {
  auto it = headers.find(strings::to_lower(name));
  return it == headers.end() ? std::string() : it->second;
}

std::string start_line(const HttpRequest& r) { return r.method + " " + r.path + " HTTP/1.1\r\n"; }

std::string start_line(const HttpResponse& r) {
  return "HTTP/1.1 " + std::to_string(r.status) + " " + r.reason + "\r\n";
}

/// Start line, headers, blank line and body, in one buffer that a stream
/// can send without copying it again.
template <typename Message>
Bytes wire_of(const Message& m) {
  std::string head = start_line(m);
  for (const auto& [k, v] : m.headers) head += k + ": " + v + "\r\n";
  if (m.headers.count("content-length") == 0) {
    head += "content-length: " + std::to_string(m.body.size()) + "\r\n";
  }
  head += "\r\n";
  Bytes out;
  out.reserve(head.size() + m.body.size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), m.body.begin(), m.body.end());
  return out;
}

}  // namespace

std::string HttpRequest::header(std::string_view name) const {
  return find_header(headers, name);
}

Bytes HttpRequest::to_wire() const { return wire_of(*this); }

std::string HttpResponse::header(std::string_view name) const {
  return find_header(headers, name);
}

Bytes HttpResponse::to_wire() const { return wire_of(*this); }

HttpResponse HttpResponse::make(int status, std::string reason, std::string body,
                                std::string content_type) {
  HttpResponse r;
  r.status = status;
  r.reason = std::move(reason);
  r.body = std::move(body);
  if (!r.body.empty()) r.headers["content-type"] = std::move(content_type);
  return r;
}

Result<bool> HttpParser::feed(std::span<const std::uint8_t> chunk) {
  if (complete_) return true;
  const std::string_view bytes(reinterpret_cast<const char*>(chunk.data()), chunk.size());
  if (headers_done_) {
    body().append(bytes);
    return finish_body();
  }
  buffer_.append(bytes);
  return try_parse();
}

std::string& HttpParser::body() {
  return kind_ == Kind::request ? request_.body : response_.body;
}

bool HttpParser::finish_body() {
  std::string& body = this->body();
  if (body.size() < body_expected_) return false;
  body.resize(body_expected_);  // bytes past content-length are not ours
  complete_ = true;
  return true;
}

Result<bool> HttpParser::try_parse() {
  std::size_t end = buffer_.find("\r\n\r\n");
  if (end == std::string::npos) return false;
  auto lines = strings::split(std::string_view(buffer_).substr(0, end), "\r\n");
  if (lines.empty()) return make_error(Errc::parse_error, "http: empty header block");
  auto first = strings::split(lines[0], ' ');
  if (kind_ == Kind::request) {
    if (first.size() < 3) {
      return make_error(Errc::parse_error, "http: bad request line: " + lines[0]);
    }
    request_.method = first[0];
    request_.path = first[1];
  } else {
    if (first.size() < 2 || !strings::starts_with(first[0], "HTTP/")) {
      return make_error(Errc::parse_error, "http: bad status line: " + lines[0]);
    }
    std::uint64_t status = 0;
    if (!strings::parse_u64(first[1], status)) {
      return make_error(Errc::parse_error, "http: bad status code: " + lines[0]);
    }
    response_.status = static_cast<int>(status);
    response_.reason = first.size() > 2 ? std::string(first[2]) : "";
  }
  auto& headers = kind_ == Kind::request ? request_.headers : response_.headers;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) {
      return make_error(Errc::parse_error, "http: bad header line: " + lines[i]);
    }
    headers[strings::to_lower(strings::trim(lines[i].substr(0, colon)))] =
        std::string(strings::trim(lines[i].substr(colon + 1)));
  }
  // An absent content-length means an empty body; a present one must parse,
  // or the real body would be left behind as if it were the next message.
  std::uint64_t length = 0;
  if (auto it = headers.find("content-length"); it != headers.end()) {
    if (!strings::parse_u64(it->second, length)) {
      return make_error(Errc::parse_error, "http: bad content-length: " + it->second);
    }
  }
  body_expected_ = length;
  headers_done_ = true;
  // The body grows in place from here on: the bytes after the head move out
  // of the header buffer once, and later chunks append straight to it.
  body().assign(buffer_, end + 4);
  buffer_.clear();
  return finish_body();
}

HttpServer::HttpServer(net::Network& net, std::string host, std::uint16_t port)
    : net_(net), host_(std::move(host)), port_(port) {}

HttpServer::~HttpServer() { stop(); }

Result<void> HttpServer::start() {
  if (started_) return ok_result();
  auto r = net_.listen({host_, port_},
                       [this](net::StreamPtr stream) { serve(std::move(stream)); });
  if (!r.ok()) return r;
  started_ = true;
  return ok_result();
}

void HttpServer::stop() {
  if (!started_) return;
  net_.stop_listening({host_, port_});
  started_ = false;
}

void HttpServer::route(std::string path, HttpHandler handler) {
  exact_[std::move(path)] = std::move(handler);
}

void HttpServer::route_prefix(std::string prefix, HttpHandler handler) {
  prefixes_[std::move(prefix)] = std::move(handler);
}

void HttpServer::serve(net::StreamPtr stream) {
  auto parser = std::make_shared<HttpParser>(HttpParser::Kind::request);
  net::Stream* raw = stream.get();
  stream->on_data([this, parser, raw, keep = stream](std::span<const std::uint8_t> chunk) {
    auto done = parser->feed(chunk);
    if (!done.ok()) {
      (void)raw->send(HttpResponse::make(400, "Bad Request").to_wire());
      raw->close();
      return;
    }
    if (!done.value()) return;
    const HttpRequest& req = parser->request();
    RespondFn respond = [raw, keep](HttpResponse resp) {
      (void)raw->send(resp.to_wire());
      raw->close();
    };
    auto exact = exact_.find(req.path);
    if (exact != exact_.end()) {
      exact->second(req, std::move(respond));
      return;
    }
    const HttpHandler* best = nullptr;
    std::size_t best_len = 0;
    for (const auto& [prefix, handler] : prefixes_) {
      if (strings::starts_with(req.path, prefix) && prefix.size() >= best_len) {
        best = &handler;
        best_len = prefix.size();
      }
    }
    if (best != nullptr) {
      (*best)(req, std::move(respond));
    } else {
      respond(HttpResponse::make(404, "Not Found"));
    }
  });
}

void http_fetch(net::Network& net, const std::string& from_host, const Uri& uri,
                HttpRequest request, HttpResultFn done) {
  using Exchange = net::Exchange<HttpResponse>;
  request.headers["host"] = uri.host;
  Exchange::run(
      net.connect(from_host, {uri.host, uri.effective_port()}), make_payload(request.to_wire()),
      [parser = HttpParser(HttpParser::Kind::response)](
          net::Stream&, std::span<const std::uint8_t> chunk) mutable -> Exchange::Reply {
        auto complete = parser.feed(chunk);
        if (!complete.ok()) return complete.error();
        if (!complete.value()) return std::nullopt;
        return parser.response();
      },
      std::move(done));
}

}  // namespace umiddle::upnp
