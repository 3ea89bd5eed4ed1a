// MIME types are uMiddle's unit of digital-port compatibility ("service shaping"):
// two digital ports are compatible iff their MIME types match, where either side may
// use a wildcard subtype (e.g. "image/*") or the full wildcard "*/*".
//
// The same type machinery is reused for physical ports, whose tag is a
// perception/media pair (e.g. "visible/paper", queried as "visible/*").
#pragma once

#include <string>
#include <string_view>

#include "common/result.hpp"

namespace umiddle {

/// A parsed type tag of the form "type/subtype"; either part may be "*".
class MimeType {
 public:
  MimeType() = default;
  /// Lowercases both parts, each built once.
  MimeType(std::string_view type, std::string_view subtype);

  /// Parse "type/subtype"; lowercases both parts. Fails on missing '/',
  /// empty parts, or embedded whitespace.
  static Result<MimeType> parse(std::string_view text);

  /// Parse or abort; for compile-time-known literals in tables and tests.
  static MimeType of(std::string_view text);

  const std::string& type() const { return type_; }
  const std::string& subtype() const { return subtype_; }

  bool is_wildcard() const { return type_ == "*" || subtype_ == "*"; }

  /// True if the two tags denote overlapping sets (wildcards on either side).
  /// Symmetric: matches(a, b) == matches(b, a).
  bool matches(const MimeType& other) const;

  std::string to_string() const { return type_ + "/" + subtype_; }

  friend bool operator==(const MimeType& a, const MimeType& b) {
    return a.type_ == b.type_ && a.subtype_ == b.subtype_;
  }
  friend bool operator<(const MimeType& a, const MimeType& b) {
    return a.type_ != b.type_ ? a.type_ < b.type_ : a.subtype_ < b.subtype_;
  }

 private:
  std::string type_ = "*";
  std::string subtype_ = "*";
};

}  // namespace umiddle
