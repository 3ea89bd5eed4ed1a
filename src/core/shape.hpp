// Service shaping (paper §3.3).
//
// A translator's *shape* is the set of communication endpoints ("ports") that
// represent the affordances of the device it bridges. uMiddle defines two port
// kinds:
//
//   * digital ports carry information between devices; each is tagged with a
//     MIME type (e.g. "image/jpeg");
//   * physical ports describe user-perceptible effects in the physical world;
//     each is tagged with a perception type (visible | audible | tangible) and
//     a media type, reusing the MIME machinery (e.g. "visible/paper").
//
// Two digital ports are compatible iff one is an output, the other an input,
// and their MIME types match (wildcards allowed). Applications select devices
// by *shape queries* rather than device-type names — this is the fine-grained
// representation of §2.2.3 and what enables device polymorphism (§3.5).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/mime.hpp"
#include "common/result.hpp"
#include "xml/xml.hpp"

namespace umiddle::core {

enum class PortKind { digital, physical };
enum class Direction { input, output };

constexpr const char* to_string(PortKind k) {
  return k == PortKind::digital ? "digital" : "physical";
}
constexpr const char* to_string(Direction d) {
  return d == Direction::input ? "input" : "output";
}

/// One endpoint in a shape.
struct PortSpec {
  std::string name;
  PortKind kind = PortKind::digital;
  Direction direction = Direction::input;
  /// MIME type for digital ports; perception/media for physical ports.
  MimeType type;
  std::string description;

  /// True if a message could flow from `out` to `in`.
  static bool connectable(const PortSpec& out, const PortSpec& in);

  friend bool operator==(const PortSpec& a, const PortSpec& b) {
    return a.name == b.name && a.kind == b.kind && a.direction == b.direction &&
           a.type == b.type;
  }
};

/// The full set of ports of one translator.
class Shape {
 public:
  Shape() = default;
  explicit Shape(std::vector<PortSpec> ports) : ports_(std::move(ports)) {}

  const std::vector<PortSpec>& ports() const { return ports_; }
  std::size_t size() const { return ports_.size(); }
  bool empty() const { return ports_.empty(); }

  /// Add a port; fails on duplicate name.
  [[nodiscard]] Result<void> add(PortSpec port);

  /// Find a port by name, or nullptr.
  const PortSpec* find(std::string_view name) const;

  std::vector<const PortSpec*> digital_inputs() const;
  std::vector<const PortSpec*> digital_outputs() const;

  /// Write the <shape> element of USDL documents and directory adverts.
  void write(xml::Writer& out) const;
  static Result<Shape> from_xml(const xml::Element& el);

  friend bool operator==(const Shape& a, const Shape& b) { return a.ports_ == b.ports_; }

 private:
  std::vector<PortSpec> ports_;
};

/// One constraint in a query: "the shape must contain a port like this".
struct PortQuery {
  std::optional<PortKind> kind;
  std::optional<Direction> direction;
  std::optional<MimeType> type;  ///< may use wildcards, e.g. "visible/*"

  bool matches(const PortSpec& port) const;
  bool operator==(const PortQuery&) const = default;
};

/// A shape template (paper Fig. 6/7). Matches a translator when every port
/// constraint is satisfied by some port of its shape, and the optional
/// platform / name filters pass.
class Query {
 public:
  Query() = default;

  Query& require(PortQuery q) {
    require_.push_back(std::move(q));
    return *this;
  }
  /// Shorthand: must have a digital input accepting `type`.
  Query& digital_input(MimeType type);
  /// Shorthand: must have a digital output producing `type`.
  Query& digital_output(MimeType type);
  /// Shorthand: must have a physical output with the given perception/media
  /// tag — the paper's "visible/paper to print it" example.
  Query& physical_output(MimeType tag);
  Query& platform(std::string platform) {
    platform_ = std::move(platform);
    return *this;
  }
  Query& name_contains(std::string needle) {
    name_needle_ = std::move(needle);
    return *this;
  }

  const std::string& platform_filter() const { return platform_; }
  const std::string& name_filter() const { return name_needle_; }

  bool matches_shape(const Shape& shape) const;

  /// XML form (carried inside CONNECT frames for remote query paths).
  xml::Element to_xml() const;
  static Result<Query> from_xml(const xml::Element& el);

  bool operator==(const Query&) const = default;

 private:
  std::vector<PortQuery> require_;
  std::string platform_;
  std::string name_needle_;
};

}  // namespace umiddle::core
