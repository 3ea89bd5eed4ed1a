#include "upnp/http.hpp"

#include "common/strings.hpp"
#include "netsim/exchange.hpp"

namespace umiddle::upnp {
namespace {

constexpr std::string_view kLineEnd = "\r\n";
constexpr std::string_view kBlankLine = "\r\n\r\n";

/// The one line splitter and colon rule: calls `on_field(name, value)` for
/// each header line of `head` (the bytes before its blank line), split at its
/// first colon and trimmed, and gives the start line. A header line with no
/// colon is a parse_error (RFC 7230 §3.2), and so is one `on_field` rejects.
template <typename OnField>
Result<std::string_view> split_head(std::string_view head, OnField on_field) {
  std::size_t end = head.find(kLineEnd);
  const std::string_view start_line = head.substr(0, end);
  while (end != std::string_view::npos) {
    const std::size_t from = end + kLineEnd.size();
    end = head.find(kLineEnd, from);
    const std::string_view line = head.substr(from, end - from);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos ||
        !on_field(strings::trim(line.substr(0, colon)), strings::trim(line.substr(colon + 1)))) {
      return make_error(Errc::parse_error, "http: bad header line: " + std::string(line));
    }
  }
  return start_line;
}

/// The message as the one writer sends it: its headers in map order, then the
/// body's content-length. A content-length in the map is not copied: it may
/// be a parsed message's, framing a body since replaced.
template <typename Message>
Bytes wire_of(const Message& m, std::string_view start_line) {
  const std::string length = std::to_string(m.body.size());
  std::vector<Field> fields;
  fields.reserve(m.headers.size() + 1);
  for (const auto& [name, value] : m.headers) {
    if (name != "content-length") fields.emplace_back(name, value);
  }
  fields.emplace_back("content-length", length);
  return write_message(start_line, fields, m.body);
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
  // The reason phrase is the rest of the line, spaces included (RFC 7230 §3.1.2).
  m.reason = first.size() > 2 ? line.substr(first[0].size() + first[1].size() + 2) : "";
  return ok_result();
}

}  // namespace

std::string Headers::header(std::string_view name, std::string_view absent) const {
  auto it = headers.find(strings::to_lower(name));
  return it == headers.end() ? std::string(absent) : it->second;
}

Result<Head> parse_head(std::string_view message) {
  const std::size_t end = message.find(kBlankLine);
  if (end == std::string_view::npos) return make_error(Errc::parse_error, "http: no blank line");
  Head head;
  auto start_line = split_head(message.substr(0, end), [&head](auto name, auto value) {
    head.headers[strings::to_lower(name)] = value;
    return true;
  });
  if (!start_line.ok()) return start_line.error();
  head.start_line = start_line.value();
  return head;
}

Bytes write_message(std::string_view start, std::span<const Field> fields, std::string_view body) {
  // Each field is its line end, then `name: value`.
  std::size_t size = start.size() + kBlankLine.size() + body.size();
  for (const auto& [name, value] : fields) size += kLineEnd.size() + name.size() + 2 + value.size();
  Bytes out;
  out.reserve(size);
  const auto put = [&out](std::string_view s) { out.insert(out.end(), s.begin(), s.end()); };
  put(start);
  for (const auto& [name, value] : fields) {
    for (const std::string_view text : {kLineEnd, name, std::string_view(": "), value}) put(text);
  }
  put(kBlankLine);
  put(body);
  return out;
}

Bytes HttpRequest::to_wire() const { return wire_of(*this, method + " " + path + " HTTP/1.1"); }

Bytes HttpResponse::to_wire() const {
  return wire_of(*this, "HTTP/1.1 " + std::to_string(status) + " " + reason);
}

HttpResponse HttpResponse::make(int status, std::string reason, std::string body,
                                std::string content_type) {
  HttpResponse r;
  r.status = status;
  r.reason = std::move(reason);
  r.body = std::move(body);
  if (!r.body.empty()) r.headers["content-type"] = std::move(content_type);
  return r;
}

template <typename Message>
Result<std::size_t> next_message(std::span<const std::uint8_t> buffer, std::vector<Message>& out) {
  const std::string_view bytes(reinterpret_cast<const char*>(buffer.data()), buffer.size());
  const std::size_t end = bytes.find(kBlankLine);
  if (end == std::string_view::npos) return std::size_t{0};
  // The body length: the last content-length, or 0 when absent. A present
  // one must parse, or the real body would be left behind as if it were the
  // next message. A scan of the header lines only, so a body arriving in many
  // chunks does not parse its head once per chunk.
  std::uint64_t length = 0;
  auto scanned = split_head(bytes.substr(0, end), [&length](auto name, auto value) {
    return !strings::iequals(name, "content-length") || strings::parse_u64(value, length);
  });
  if (!scanned.ok()) return scanned.error();
  const std::size_t body_at = end + kBlankLine.size();
  if (body_at > kMaxFrame || length > kMaxFrame - body_at) {
    return make_error(Errc::protocol_error, "http: message exceeds kMaxFrame");
  }
  // Incomplete: the head is in, so report the message's full length.
  if (bytes.size() - body_at < length) return body_at + length;

  auto head = parse_head(bytes.substr(0, body_at));
  if (!head.ok()) return head.error();
  Message m;
  if (auto r = parse_start_line(head.value().start_line, m); !r.ok()) return r.error();
  m.headers = std::move(head.value().headers);
  m.body.assign(bytes.substr(body_at, length));
  out.push_back(std::move(m));
  return body_at + length;
}

template Result<std::size_t> next_message(std::span<const std::uint8_t>, std::vector<HttpRequest>&);
template Result<std::size_t> next_message(std::span<const std::uint8_t>,
                                          std::vector<HttpResponse>&);

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
  auto handle = [this, keep = stream, served = false](HttpRequest& req) mutable {
    // One request per connection: its response closes the stream.
    if (std::exchange(served, true)) return;
    req.caller = keep->remote().host;
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
