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

namespace {

/// The body length a head announces: its last content-length, or 0 when
/// absent. A scan of the header lines only, so a body arriving in many
/// chunks does not parse its head once per chunk.
Result<std::uint64_t> content_length(std::string_view head) {
  std::uint64_t length = 0;
  for (std::size_t pos = head.find("\r\n"); pos != std::string_view::npos;) {
    const std::size_t start = pos + 2;
    pos = head.find("\r\n", start);
    const std::string_view line = head.substr(start, pos - start);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos ||
        !strings::iequals(strings::trim(line.substr(0, colon)), "content-length")) {
      continue;
    }
    // A present content-length must parse, or the real body would be left
    // behind as if it were the next message.
    const std::string_view value = strings::trim(line.substr(colon + 1));
    if (!strings::parse_u64(value, length)) {
      return make_error(Errc::parse_error, "http: bad content-length: " + std::string(value));
    }
  }
  return length;
}

Result<void> parse_start_line(const std::string& line, HttpRequest& m) {
  auto first = strings::split(line, ' ');
  if (first.size() < 3) return make_error(Errc::parse_error, "http: bad request line: " + line);
  m.method = first[0];
  m.path = first[1];
  return ok_result();
}

Result<void> parse_start_line(const std::string& line, HttpResponse& m) {
  auto first = strings::split(line, ' ');
  if (first.size() < 2 || !strings::starts_with(first[0], "HTTP/")) {
    return make_error(Errc::parse_error, "http: bad status line: " + line);
  }
  std::uint64_t status = 0;
  if (!strings::parse_u64(first[1], status)) {
    return make_error(Errc::parse_error, "http: bad status code: " + line);
  }
  m.status = static_cast<int>(status);
  m.reason = first.size() > 2 ? std::string(first[2]) : "";
  return ok_result();
}

template <typename Message>
Result<std::size_t> next_message(std::span<const std::uint8_t> buffer, std::vector<Message>& out) {
  const std::string_view bytes(reinterpret_cast<const char*>(buffer.data()), buffer.size());
  const std::size_t end = bytes.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::size_t{0};
  const std::string_view head = bytes.substr(0, end);
  auto length = content_length(head);
  if (!length.ok()) return length.error();
  const std::size_t body_at = end + 4;
  if (body_at > kMaxFrame || length.value() > kMaxFrame - body_at) {
    return make_error(Errc::protocol_error, "http: message exceeds kMaxFrame");
  }
  // Incomplete: the head is in, so report the message's full length.
  if (bytes.size() - body_at < length.value()) return body_at + length.value();

  auto lines = strings::split(head, "\r\n");
  Message m;
  if (auto r = parse_start_line(lines[0], m); !r.ok()) return r.error();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) {
      return make_error(Errc::parse_error, "http: bad header line: " + lines[i]);
    }
    m.headers[strings::to_lower(strings::trim(lines[i].substr(0, colon)))] =
        std::string(strings::trim(lines[i].substr(colon + 1)));
  }
  m.body.assign(bytes.substr(body_at, length.value()));
  out.push_back(std::move(m));
  return body_at + length.value();
}

}  // namespace

Result<std::size_t> next_request(std::span<const std::uint8_t> buffer,
                                 std::vector<HttpRequest>& out) {
  return next_message(buffer, out);
}

Result<std::size_t> next_response(std::span<const std::uint8_t> buffer,
                                  std::vector<HttpResponse>& out) {
  return next_message(buffer, out);
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
  net::Stream* raw = stream.get();
  auto handle = [this, keep = stream, served = false](const HttpRequest& req) mutable {
    // One request per connection: its response closes the stream.
    if (std::exchange(served, true)) return;
    // Every copy of the responder shares one guard. The last copy to die
    // unanswered closes the stream, so the client sees a disconnect instead
    // of waiting forever for a handler that is gone.
    struct Guard {
      explicit Guard(net::StreamPtr s) : stream(std::move(s)) {}
      Guard(const Guard&) = delete;
      Guard& operator=(const Guard&) = delete;
      net::StreamPtr stream;
      bool answered = false;
      ~Guard() {
        if (!answered) stream->close();
      }
    };
    RespondFn respond = [guard = std::make_shared<Guard>(keep)](HttpResponse resp) {
      guard->answered = true;
      (void)guard->stream->send(resp.to_wire());
      guard->stream->close();
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
  };
  stream->on_data(net::frames<HttpRequestReader>(*raw, std::move(handle), [raw](const Error&) {
    (void)raw->send(HttpResponse::make(400, "Bad Request").to_wire());
    raw->close();
  }));
}

void http_fetch(net::Network& net, const std::string& from_host, const Uri& uri,
                HttpRequest request, HttpResultFn done) {
  using Exchange = net::Exchange<HttpResponse>;
  request.headers["host"] = uri.host;
  Exchange::run<HttpResponseReader>(
      net.connect(from_host, {uri.host, uri.effective_port()}), make_payload(request.to_wire()),
      [](net::Stream&, HttpResponse& response) -> Exchange::Reply { return std::move(response); },
      std::move(done));
}

}  // namespace umiddle::upnp
