// UPnP device & service description documents (the XML fetched from the
// LOCATION URL advertised over SSDP).
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "xml/xml.hpp"

namespace umiddle::upnp {

struct ServiceDescription {
  std::string service_type;  ///< urn:schemas-upnp-org:service:SwitchPower:1
  std::string service_id;    ///< urn:upnp-org:serviceId:SwitchPower
  std::string control_url;   ///< absolute or device-relative
  std::string event_sub_url;
  /// Action names (inlined here instead of a separate SCPD document; the
  /// mapper only needs the names to sanity-check USDL bindings).
  std::vector<std::string> actions;
  /// Evented state variable names.
  std::vector<std::string> state_vars;

  bool operator==(const ServiceDescription&) const = default;
};

struct DeviceDescription {
  std::string device_type;    ///< urn:schemas-upnp-org:device:BinaryLight:1
  std::string friendly_name;  ///< "Living-room light"
  std::string udn;            ///< uuid:...
  std::vector<ServiceDescription> services;

  const ServiceDescription* service(std::string_view service_type) const;

  std::string to_xml_text() const;
  static Result<DeviceDescription> from_xml_text(std::string_view text);

  bool operator==(const DeviceDescription&) const = default;
};

}  // namespace umiddle::upnp
