#include "core/profile.hpp"

#include "common/strings.hpp"

namespace umiddle::core {

Result<TranslatorProfile> TranslatorProfile::from_xml(const xml::Element& el) {
  if (el.name() != "translator") {
    return make_error(Errc::parse_error, "expected <translator>, got <" + el.name() + ">");
  }
  TranslatorProfile p;
  std::uint64_t id = 0, node = 0;
  if (!strings::parse_u64(el.attr("id"), id) || id == 0) {
    return make_error(Errc::parse_error, "translator missing/bad id");
  }
  if (!strings::parse_u64(el.attr("node"), node) || node == 0) {
    return make_error(Errc::parse_error, "translator missing/bad node");
  }
  p.id = TranslatorId(id);
  p.node = NodeId(node);
  p.name = std::string(el.attr("name"));
  p.platform = std::string(el.attr("platform"));
  p.device_type = std::string(el.attr("device-type"));
  const xml::Element* shape_el = el.child("shape");
  if (shape_el == nullptr) return make_error(Errc::parse_error, "translator missing shape");
  auto shape = Shape::from_xml(*shape_el);
  if (!shape.ok()) return shape.error();
  p.shape = std::move(shape).take();
  return p;
}

bool matches(const Query& query, const TranslatorProfile& profile) {
  if (!query.platform_filter().empty() && query.platform_filter() != profile.platform) {
    return false;
  }
  if (!query.name_filter().empty() &&
      profile.name.find(query.name_filter()) == std::string::npos) {
    return false;
  }
  return query.matches_shape(profile.shape);
}

}  // namespace umiddle::core
