#include "core/usdl.hpp"

#include "common/strings.hpp"
#include "xml/parser.hpp"

namespace umiddle::core {
namespace {

Result<UsdlBinding> parse_binding(const xml::Element& el, const Shape& shape) {
  UsdlBinding b;
  b.port = std::string(el.attr("port"));
  b.kind = std::string(el.attr("kind"));
  b.emit_port = std::string(el.attr("emit"));
  if (b.port.empty()) return make_error(Errc::parse_error, "binding missing port");
  if (b.kind.empty()) return make_error(Errc::parse_error, "binding missing kind");
  const PortSpec* port = shape.find(b.port);
  if (port == nullptr) {
    return make_error(Errc::parse_error, "binding references unknown port: " + b.port);
  }
  if (!b.emit_port.empty()) {
    const PortSpec* emit = shape.find(b.emit_port);
    if (emit == nullptr) {
      return make_error(Errc::parse_error, "binding emit references unknown port: " + b.emit_port);
    }
    if (emit->direction != Direction::output) {
      return make_error(Errc::parse_error, "binding emit port must be an output: " + b.emit_port);
    }
  }
  const xml::Element* native = el.child("native");
  if (native == nullptr) return make_error(Errc::parse_error, "binding missing <native>");
  for (const auto& [k, v] : native->attributes()) b.native.attrs[k] = v;
  for (const xml::Element& arg : native->children()) {
    if (arg.name() != "arg") {
      return make_error(Errc::parse_error, "unexpected native child: " + arg.name());
    }
    b.native.args.push_back(UsdlArg{std::string(arg.attr("name")), std::string(arg.attr("value"))});
  }
  return b;
}

Result<UsdlService> parse_service(const xml::Element& el) {
  UsdlService s;
  s.platform = std::string(el.attr("platform"));
  s.match = std::string(el.attr("match"));
  s.name = std::string(el.attr("name"));
  if (s.platform.empty()) return make_error(Errc::parse_error, "service missing platform");
  if (s.match.empty()) return make_error(Errc::parse_error, "service missing match");
  if (s.name.empty()) s.name = s.match;

  if (const xml::Element* h = el.child("hierarchy"); h != nullptr) {
    std::uint64_t n = 0;
    if (!strings::parse_u64(h->attr("entities"), n)) {
      return make_error(Errc::parse_error, "bad hierarchy entities");
    }
    s.hierarchy_entities = static_cast<int>(n);
  }

  const xml::Element* shape_el = el.child("shape");
  if (shape_el == nullptr) return make_error(Errc::parse_error, "service missing shape");
  auto shape = Shape::from_xml(*shape_el);
  if (!shape.ok()) return shape.error();
  s.shape = std::move(shape).take();
  if (s.shape.empty()) return make_error(Errc::parse_error, "service shape has no ports");

  if (const xml::Element* bindings = el.child("bindings"); bindings != nullptr) {
    for (const xml::Element& b : bindings->children()) {
      if (b.name() != "binding") {
        return make_error(Errc::parse_error, "unexpected bindings child: " + b.name());
      }
      auto binding = parse_binding(b, s.shape);
      if (!binding.ok()) return binding.error();
      s.bindings.push_back(std::move(binding).take());
    }
  }
  return s;
}

}  // namespace

Result<UsdlDocument> parse_usdl(const xml::Element& root) {
  if (root.name() != "usdl") {
    return make_error(Errc::parse_error, "expected <usdl> root, got <" + root.name() + ">");
  }
  UsdlDocument doc;
  for (const xml::Element& child : root.children()) {
    if (child.name() != "service") {
      return make_error(Errc::parse_error, "unexpected usdl child: " + child.name());
    }
    auto s = parse_service(child);
    if (!s.ok()) return s.error();
    doc.services.push_back(std::move(s).take());
  }
  if (doc.services.empty()) return make_error(Errc::parse_error, "usdl document has no services");
  return doc;
}

Result<UsdlDocument> parse_usdl(std::string_view text) {
  auto root = xml::parse(text);
  if (!root.ok()) return root.error();
  return parse_usdl(root.value());
}

std::string usdl_text(const UsdlDocument& doc) {
  xml::Writer out;
  out.start("usdl").attr("version", "1");
  for (const UsdlService& service : doc.services) {
    out.start("service")
        .attr("platform", service.platform)
        .attr("match", service.match)
        .attr("name", service.name);
    if (service.hierarchy_entities > 0) {
      out.start("hierarchy")
          .attr("entities", std::to_string(service.hierarchy_entities))
          .end("hierarchy");
    }
    service.shape.write(out);
    if (!service.bindings.empty()) {
      out.start("bindings");
      for (const UsdlBinding& b : service.bindings) {
        out.start("binding").attr("port", b.port).attr("kind", b.kind);
        if (!b.emit_port.empty()) out.attr("emit", b.emit_port);
        out.start("native");
        for (const auto& [k, v] : b.native.attrs) out.attr(k, v);
        for (const UsdlArg& arg : b.native.args) {
          out.start("arg").attr("name", arg.name).attr("value", arg.value).end("arg");
        }
        out.end("native").end("binding");
      }
      out.end("bindings");
    }
    out.end("service");
  }
  out.end("usdl");
  return std::move(out).take();
}

void UsdlLibrary::add(UsdlDocument doc) {
  for (UsdlService& s : doc.services) {
    const UsdlService& kept = services_.emplace_back(std::move(s));
    by_key_[{kept.platform, kept.match}] = &kept;
  }
}

Result<void> UsdlLibrary::add_text(std::string_view text) {
  auto doc = parse_usdl(text);
  if (!doc.ok()) return doc.error();
  add(std::move(doc).take());
  return ok_result();
}

const UsdlService* UsdlLibrary::find(std::string_view platform, std::string_view match) const {
  auto it = by_key_.find({std::string(platform), std::string(match)});
  return it == by_key_.end() ? nullptr : it->second;
}

std::vector<const UsdlService*> UsdlLibrary::services_for(std::string_view platform) const {
  std::vector<const UsdlService*> out;
  for (const auto& [key, service] : by_key_) {
    if (key.first == platform) out.push_back(service);
  }
  return out;
}

}  // namespace umiddle::core
