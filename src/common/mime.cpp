#include "common/mime.hpp"

#include <cstdlib>

#include "common/strings.hpp"

namespace umiddle {
namespace {

bool valid_token(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (strings::is_space(c) || c == '/') return false;
  }
  return true;
}

}  // namespace

MimeType::MimeType(std::string_view type, std::string_view subtype)
    : type_(strings::to_lower(type)), subtype_(strings::to_lower(subtype)) {}

Result<MimeType> MimeType::parse(std::string_view text) {
  text = strings::trim(text);
  std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    return make_error(Errc::parse_error, "mime type missing '/': " + std::string(text));
  }
  std::string_view type = text.substr(0, slash);
  std::string_view subtype = text.substr(slash + 1);
  if (!valid_token(type) || !valid_token(subtype)) {
    return make_error(Errc::parse_error, "malformed mime type: " + std::string(text));
  }
  return MimeType(type, subtype);
}

MimeType MimeType::of(std::string_view text) {
  auto r = parse(text);
  if (!r.ok()) std::abort();  // programmer error: literal table entry is malformed
  return std::move(r).take();
}

bool MimeType::matches(const MimeType& other) const {
  const bool type_ok = type_ == "*" || other.type_ == "*" || type_ == other.type_;
  if (!type_ok) return false;
  return subtype_ == "*" || other.subtype_ == "*" || subtype_ == other.subtype_;
}

}  // namespace umiddle
