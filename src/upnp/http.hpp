// Minimal HTTP/1.1 over netsim streams — the base protocol of UPnP:
// device descriptions are fetched with GET, control is SOAP-over-POST,
// and GENA eventing uses SUBSCRIBE/UNSUBSCRIBE/NOTIFY methods.
//
// Model: one request per connection (Connection: close), bodies delimited by
// Content-Length. That matches how 2006-era UPnP stacks behaved in practice.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/frame_reader.hpp"
#include "common/result.hpp"
#include "common/uri.hpp"
#include "netsim/stream.hpp"

namespace umiddle::upnp {

/// Header fields, names lower-cased. A repeated name keeps its last value.
struct Headers {
  std::map<std::string, std::string> headers;

  /// The value of header `name`, in any case, or `absent` when it has none.
  std::string header(std::string_view name, std::string_view absent = "") const;
};

/// An HTTP message head (RFC 7230 §3): the start line and the header fields.
/// SOAP and GENA messages carry one, and an SSDP datagram is one (UPnP DA 1.0
/// §1). Its one reader and one writer are below (DESIGN.md §7.9).
struct Head : Headers { std::string start_line; };

/// The head at the front of `message`, up to its first blank line. A message
/// with no blank line, or a header line with no colon, is a parse_error.
[[nodiscard]] Result<Head> parse_head(std::string_view message);

/// One header field as the writer takes it: name and value.
using Field = std::pair<std::string_view, std::string_view>;

/// The one head writer: the `start` line, each field as `Name: value`, the
/// blank line, then `body`, in one buffer of exactly that size.
Bytes write_message(std::string_view start, std::span<const Field> fields,
                    std::string_view body = {});

struct HttpRequest : Headers {
  std::string method = "GET";
  std::string path = "/";
  std::string body;
  /// The host the request came from, which HttpServer sets from the accepted
  /// stream. Never on the wire: registrations take it as their owner.
  std::string caller;

  /// The message as sent on a stream: head, blank line, body.
  Bytes to_wire() const;
};

struct HttpResponse : Headers {
  int status = 200;
  std::string reason = "OK";
  std::string body;

  /// The message as sent on a stream: head, blank line, body.
  Bytes to_wire() const;

  static HttpResponse make(int status, std::string reason, std::string body = "",
                           std::string content_type = "text/xml");
};

/// HTTP's FrameReader decode step (DESIGN.md §7.6), for an HttpRequest or an
/// HttpResponse: a head up to the blank line, then a content-length body
/// (absent means empty). A malformed head, a content-length that is not a
/// u64, and a message longer than kMaxFrame are errors. A message whose head
/// is in but whose body is not reports its full length.
template <typename Message>
[[nodiscard]] Result<std::size_t> next_message(std::span<const std::uint8_t> buffer,
                                               std::vector<Message>& out);
using HttpRequestReader = FrameReader<HttpRequest, next_message<HttpRequest>>;
using HttpResponseReader = FrameReader<HttpResponse, next_message<HttpResponse>>;

/// Asynchronous request handler: call `respond` exactly once, possibly after
/// scheduling virtual-time work (device actuation, SOAP unmarshalling).
using RespondFn = std::function<void(HttpResponse)>;
using HttpHandler = std::function<void(const HttpRequest& request, RespondFn respond)>;

/// Wrap a synchronous handler.
inline HttpHandler sync_handler(std::function<HttpResponse(const HttpRequest&)> fn) {
  return [fn = std::move(fn)](const HttpRequest& req, RespondFn respond) { respond(fn(req)); };
}

/// One-listener HTTP server. Dispatch is by exact path first, then by the
/// longest registered prefix (for per-device trees like /device/<udn>/...).
class HttpServer {
 public:
  HttpServer(net::Network& net, std::string host, std::uint16_t port);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  [[nodiscard]] Result<void> start();
  void stop();

  void route(std::string path, HttpHandler handler);
  void route_prefix(std::string prefix, HttpHandler handler);

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }

 private:
  void serve(net::StreamPtr stream);

  net::Network& net_;
  std::string host_;
  std::uint16_t port_;
  bool started_ = false;
  std::map<std::string, HttpHandler> exact_;
  std::map<std::string, HttpHandler> prefixes_;
};

/// Fire one HTTP request as a net::Exchange; the callback receives the
/// response or an error.
using HttpResultFn = std::function<void(Result<HttpResponse>)>;
void http_fetch(net::Network& net, const std::string& from_host, const Uri& uri,
                HttpRequest request, HttpResultFn done);

}  // namespace umiddle::upnp
