#include "upnp/description.hpp"

#include "xml/parser.hpp"

namespace umiddle::upnp {

const ServiceDescription* DeviceDescription::service(std::string_view service_type) const {
  for (const ServiceDescription& s : services) {
    if (s.service_type == service_type) return &s;
  }
  return nullptr;
}

std::string DeviceDescription::to_xml_text() const {
  xml::Element root("root");
  root.set_attr("xmlns", "urn:schemas-upnp-org:device-1-0");
  xml::Element& device = root.add_child("device");
  device.add_child("deviceType").set_text(device_type);
  device.add_child("friendlyName").set_text(friendly_name);
  device.add_child("UDN").set_text(udn);
  xml::Element& list = device.add_child("serviceList");
  for (const ServiceDescription& s : services) {
    xml::Element& service = list.add_child("service");
    service.add_child("serviceType").set_text(s.service_type);
    service.add_child("serviceId").set_text(s.service_id);
    service.add_child("controlURL").set_text(s.control_url);
    service.add_child("eventSubURL").set_text(s.event_sub_url);
    xml::Element& actions = service.add_child("actionList");
    for (const std::string& a : s.actions) actions.add_child("action").set_text(a);
    xml::Element& vars = service.add_child("stateVariableList");
    for (const std::string& v : s.state_vars) vars.add_child("stateVariable").set_text(v);
  }
  return root.to_string(/*declaration=*/true);
}

Result<DeviceDescription> DeviceDescription::from_xml_text(std::string_view text) {
  auto parsed = xml::parse(text);
  if (!parsed.ok()) return parsed.error();
  const xml::Element* device = parsed.value().child("device");
  if (device == nullptr) {
    return make_error(Errc::parse_error, "upnp description: missing <device>");
  }
  DeviceDescription d;
  d.device_type = std::string(device->child_text("deviceType"));
  d.friendly_name = std::string(device->child_text("friendlyName"));
  d.udn = std::string(device->child_text("UDN"));
  if (d.device_type.empty() || d.udn.empty()) {
    return make_error(Errc::parse_error, "upnp description: missing deviceType/UDN");
  }
  if (const xml::Element* list = device->child("serviceList"); list != nullptr) {
    for (const xml::Element* s : list->children_named("service")) {
      ServiceDescription svc;
      svc.service_type = std::string(s->child_text("serviceType"));
      svc.service_id = std::string(s->child_text("serviceId"));
      svc.control_url = std::string(s->child_text("controlURL"));
      svc.event_sub_url = std::string(s->child_text("eventSubURL"));
      if (const xml::Element* actions = s->child("actionList"); actions != nullptr) {
        for (const xml::Element* a : actions->children_named("action")) {
          svc.actions.push_back(a->text());
        }
      }
      if (const xml::Element* vars = s->child("stateVariableList"); vars != nullptr) {
        for (const xml::Element* v : vars->children_named("stateVariable")) {
          svc.state_vars.push_back(v->text());
        }
      }
      if (svc.service_type.empty()) {
        return make_error(Errc::parse_error, "upnp description: service missing type");
      }
      d.services.push_back(std::move(svc));
    }
  }
  return d;
}

}  // namespace umiddle::upnp
