#include "core/shape.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace umiddle::core {
namespace {

Result<PortKind> parse_kind(std::string_view s) {
  if (s == "digital") return PortKind::digital;
  if (s == "physical") return PortKind::physical;
  return make_error(Errc::parse_error, "bad port kind: " + std::string(s));
}

Result<Direction> parse_direction(std::string_view s) {
  if (s == "input") return Direction::input;
  if (s == "output") return Direction::output;
  return make_error(Errc::parse_error, "bad port direction: " + std::string(s));
}

}  // namespace

bool PortSpec::connectable(const PortSpec& out, const PortSpec& in) {
  return out.kind == PortKind::digital && in.kind == PortKind::digital &&
         out.direction == Direction::output && in.direction == Direction::input &&
         out.type.matches(in.type);
}

Result<void> Shape::add(PortSpec port) {
  if (find(port.name) != nullptr) {
    return make_error(Errc::already_exists, "duplicate port name: " + port.name);
  }
  ports_.push_back(std::move(port));
  return ok_result();
}

const PortSpec* Shape::find(std::string_view name) const {
  for (const PortSpec& p : ports_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::vector<const PortSpec*> Shape::digital_inputs() const {
  std::vector<const PortSpec*> out;
  for (const PortSpec& p : ports_) {
    if (p.kind == PortKind::digital && p.direction == Direction::input) out.push_back(&p);
  }
  return out;
}

std::vector<const PortSpec*> Shape::digital_outputs() const {
  std::vector<const PortSpec*> out;
  for (const PortSpec& p : ports_) {
    if (p.kind == PortKind::digital && p.direction == Direction::output) out.push_back(&p);
  }
  return out;
}

void Shape::write(xml::Writer& out) const {
  out.start("shape");
  for (const PortSpec& p : ports_) {
    const char* element = p.kind == PortKind::digital ? "digital-port" : "physical-port";
    out.start(element).attr("name", p.name).attr("direction", to_string(p.direction));
    // Physical ports carry perception/media in the same attribute slot ("tag")
    // the paper uses; digital ports carry "mime".
    out.attr(p.kind == PortKind::digital ? "mime" : "tag", {p.type.type(), "/", p.type.subtype()});
    if (!p.description.empty()) out.attr("description", p.description);
    out.end(element);
  }
  out.end("shape");
}

Result<Shape> Shape::from_xml(const xml::Element& el) {
  Shape shape;
  for (const xml::Element& child : el.children()) {
    PortSpec p;
    if (child.name() == "digital-port") {
      p.kind = PortKind::digital;
    } else if (child.name() == "physical-port") {
      p.kind = PortKind::physical;
    } else {
      return make_error(Errc::parse_error, "unexpected shape child: " + child.name());
    }
    p.name = std::string(child.attr("name"));
    if (p.name.empty()) return make_error(Errc::parse_error, "port missing name");
    auto dir = parse_direction(child.attr("direction"));
    if (!dir.ok()) return dir.error();
    p.direction = dir.value();
    auto type = MimeType::parse(child.attr(p.kind == PortKind::digital ? "mime" : "tag"));
    if (!type.ok()) return type.error();
    p.type = type.value();
    p.description = std::string(child.attr("description"));
    if (auto r = shape.add(std::move(p)); !r.ok()) return r.error();
  }
  return shape;
}

bool PortQuery::matches(const PortSpec& port) const {
  if (kind && *kind != port.kind) return false;
  if (direction && *direction != port.direction) return false;
  if (type && !type->matches(port.type)) return false;
  return true;
}

Query& Query::digital_input(MimeType type) {
  return require(PortQuery{PortKind::digital, Direction::input, std::move(type)});
}

Query& Query::digital_output(MimeType type) {
  return require(PortQuery{PortKind::digital, Direction::output, std::move(type)});
}

Query& Query::physical_output(MimeType tag) {
  return require(PortQuery{PortKind::physical, Direction::output, std::move(tag)});
}

bool Query::matches_shape(const Shape& shape) const {
  return std::all_of(require_.begin(), require_.end(), [&](const PortQuery& pq) {
    return std::any_of(shape.ports().begin(), shape.ports().end(),
                       [&](const PortSpec& p) { return pq.matches(p); });
  });
}

xml::Element Query::to_xml() const {
  xml::Element el("query");
  if (!platform_.empty()) el.set_attr("platform", platform_);
  if (!name_needle_.empty()) el.set_attr("name-contains", name_needle_);
  for (const PortQuery& pq : require_) {
    xml::Element& port = el.add_child("port");
    if (pq.kind) port.set_attr("kind", to_string(*pq.kind));
    if (pq.direction) port.set_attr("direction", to_string(*pq.direction));
    if (pq.type) port.set_attr("type", pq.type->to_string());
  }
  return el;
}

Result<Query> Query::from_xml(const xml::Element& el) {
  Query q;
  q.platform_ = std::string(el.attr("platform"));
  q.name_needle_ = std::string(el.attr("name-contains"));
  for (const xml::Element& child : el.children()) {
    if (child.name() != "port") {
      return make_error(Errc::parse_error, "unexpected query child: " + child.name());
    }
    PortQuery pq;
    if (child.has_attr("kind")) {
      auto k = parse_kind(child.attr("kind"));
      if (!k.ok()) return k.error();
      pq.kind = k.value();
    }
    if (child.has_attr("direction")) {
      auto d = parse_direction(child.attr("direction"));
      if (!d.ok()) return d.error();
      pq.direction = d.value();
    }
    if (child.has_attr("type")) {
      auto t = MimeType::parse(child.attr("type"));
      if (!t.ok()) return t.error();
      pq.type = t.value();
    }
    q.require_.push_back(std::move(pq));
  }
  return q;
}

}  // namespace umiddle::core
