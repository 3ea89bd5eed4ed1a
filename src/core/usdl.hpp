// USDL — Universal Service Description Language (paper §3.4).
//
// An XML language that tells a *generic*, per-platform translator implementation
// how to represent one native device type in the intermediary semantic space:
// the shape (ports) to expose, and *bindings* that connect each port to native
// operations. The paper's example: a USDL document for UPnP lights turns the
// native SetPower action into two digital input ports, one passing "1" (on) and
// one passing "0" (off).
//
// Binding `<native>` elements are interpreted by the owning platform mapper —
// USDL itself stays platform-neutral, exactly as in the paper where mappers
// "create a translator (and the shape) of a native device based on a USDL
// definition for that device".
//
// Document grammar:
//
//   <usdl version="1">
//     <service platform="upnp" match="urn:...:BinaryLight:1" name="UPnP Light">
//       <hierarchy entities="2"/>                     <!-- optional -->
//       <shape> <digital-port .../> <physical-port .../> </shape>
//       <bindings>
//         <binding port="power-on" kind="action" emit="...optional output port...">
//           <native action="SetPower" service="SwitchPower">
//             <arg name="Power" value="1"/>
//           </native>
//         </binding>
//       </bindings>
//     </service>
//   </usdl>
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/shape.hpp"
#include "xml/xml.hpp"

namespace umiddle::core {

/// A named argument of a native operation. `value` may be a literal or the
/// placeholder "$body", replaced by the incoming message payload at runtime.
struct UsdlArg {
  std::string name;
  std::string value;

  bool operator==(const UsdlArg&) const = default;
};

/// The platform-specific half of a binding, passed through to the mapper.
struct UsdlNative {
  std::map<std::string, std::string> attrs;
  std::vector<UsdlArg> args;

  std::string attr(std::string_view name) const {
    auto it = attrs.find(std::string(name));
    return it == attrs.end() ? std::string() : it->second;
  }
  bool operator==(const UsdlNative&) const = default;
};

/// Connects one port of the shape to a native operation.
struct UsdlBinding {
  std::string port;           ///< port this binding serves
  std::string kind;           ///< mapper-defined: "action", "event", "query", ...
  std::string emit_port;      ///< optional output port for results/events
  UsdlNative native;

  bool operator==(const UsdlBinding&) const = default;
};

/// One device type's description.
struct UsdlService {
  std::string platform;
  std::string match;          ///< native type key the mapper discovers devices by
  std::string name;
  /// Extra intermediary entities besides the translator itself (the paper's
  /// UPnP clock needs "two more uMiddle entities for the UPnP service/device
  /// hierarchy", which dominate its Fig. 10 instantiation cost).
  int hierarchy_entities = 0;
  Shape shape;
  std::vector<UsdlBinding> bindings;

  bool operator==(const UsdlService&) const = default;
};

struct UsdlDocument {
  std::vector<UsdlService> services;

  bool operator==(const UsdlDocument&) const = default;
};

/// Parse a USDL document; validates that every binding references a declared
/// port and that `emit` ports are outputs.
[[nodiscard]] Result<UsdlDocument> parse_usdl(std::string_view text);
[[nodiscard]] Result<UsdlDocument> parse_usdl(const xml::Element& root);

/// Serialize back to XML text (used by tooling and round-trip tests).
std::string usdl_text(const UsdlDocument& doc);

/// Keyed store of service descriptions; mappers look up by (platform, match).
class UsdlLibrary {
 public:
  UsdlLibrary() = default;
  // Lookups point into services_: a copy would point into the original.
  UsdlLibrary(const UsdlLibrary&) = delete;
  UsdlLibrary& operator=(const UsdlLibrary&) = delete;

  /// Register all services of a document. Later registrations override earlier
  /// ones with the same (platform, match) key, enabling user customization.
  /// An override frees nothing: translators built from the description it
  /// replaces keep reading that one, and later lookups find the new one.
  void add(UsdlDocument doc);
  [[nodiscard]] Result<void> add_text(std::string_view text);

  const UsdlService* find(std::string_view platform, std::string_view match) const;
  std::vector<const UsdlService*> services_for(std::string_view platform) const;
  std::size_t size() const { return by_key_.size(); }

 private:
  std::deque<UsdlService> services_;  ///< every description added; only appended to
  std::map<std::pair<std::string, std::string>, const UsdlService*> by_key_;
};

}  // namespace umiddle::core
