// Minimal URI support for the HTTP/SOAP/GENA substrates: scheme://host[:port]/path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace umiddle {

struct Uri {
  std::string scheme;
  std::string host;
  std::uint16_t port = 0;  ///< 0 means "use the scheme default"
  std::string path = "/";

  static Result<Uri> parse(std::string_view text);

  /// Port, falling back to the scheme default (http→80) when unset.
  std::uint16_t effective_port() const;

  std::string to_string() const;

  friend bool operator==(const Uri&, const Uri&) = default;
};

}  // namespace umiddle
