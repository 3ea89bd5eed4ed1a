#include "common/uri.hpp"

#include "common/strings.hpp"

namespace umiddle {

Result<Uri> Uri::parse(std::string_view text) {
  text = strings::trim(text);
  std::size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) {
    return make_error(Errc::parse_error, "uri missing scheme: " + std::string(text));
  }
  Uri uri;
  uri.scheme = strings::to_lower(text.substr(0, scheme_end));
  std::string_view rest = text.substr(scheme_end + 3);

  std::size_t path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  uri.path = path_start == std::string_view::npos ? "/" : std::string(rest.substr(path_start));

  if (authority.empty()) {
    return make_error(Errc::parse_error, "uri missing host: " + std::string(text));
  }
  std::size_t colon = authority.rfind(':');
  if (colon == std::string_view::npos) {
    uri.host = std::string(authority);
  } else {
    uri.host = std::string(authority.substr(0, colon));
    std::uint64_t port = 0;
    if (!strings::parse_u64(authority.substr(colon + 1), port) || port == 0 || port > 65535) {
      return make_error(Errc::parse_error, "uri bad port: " + std::string(text));
    }
    uri.port = static_cast<std::uint16_t>(port);
  }
  if (uri.host.empty()) {
    return make_error(Errc::parse_error, "uri empty host: " + std::string(text));
  }
  return uri;
}

std::uint16_t Uri::effective_port() const {
  if (port != 0) return port;
  if (scheme == "http") return 80;
  if (scheme == "mb") return 5060;
  if (scheme == "rmi") return 1099;
  return 0;
}

std::string Uri::to_string() const {
  std::string out = scheme + "://" + host;
  if (port != 0) {
    out += ':';
    out += std::to_string(port);
  }
  out += path;
  return out;
}

}  // namespace umiddle
