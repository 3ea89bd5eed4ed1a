#include "upnp/gena.hpp"

#include "xml/parser.hpp"

namespace umiddle::upnp {

std::string PropertySet::to_xml_text() const {
  xml::Element root("e:propertyset");
  root.set_attr("xmlns:e", "urn:schemas-upnp-org:event-1-0");
  for (const auto& [name, value] : properties) {
    root.add_child("e:property").add_child(name).set_text(value);
  }
  return root.to_string(/*declaration=*/true);
}

Result<PropertySet> PropertySet::from_xml_text(std::string_view text) {
  auto parsed = xml::parse(text);
  if (!parsed.ok()) return parsed.error();
  if (parsed.value().local_name() != "propertyset") {
    return make_error(Errc::parse_error, "gena: root is not propertyset");
  }
  PropertySet set;
  for (const xml::Element* prop : parsed.value().children_named("property")) {
    for (const xml::Element& var : prop->children()) {
      set.properties[std::string(var.local_name())] = var.text();
    }
  }
  return set;
}

}  // namespace umiddle::upnp
