// GENA — General Event Notification Architecture (UPnP eventing).
//
// Subscribers send SUBSCRIBE to a service's eventSubURL with a CALLBACK URL;
// the device replies with a SID and then POSTs NOTIFY messages carrying
// <e:propertyset><e:property><Var>value</.. documents to the callback whenever
// an evented state variable changes. This is how UPnP translators surface
// native events as uMiddle output-port messages.
#pragma once

#include <map>
#include <string>

#include "common/result.hpp"
#include "xml/xml.hpp"

namespace umiddle::upnp {

/// Body of a NOTIFY: changed state variables and their new values.
struct PropertySet {
  std::map<std::string, std::string> properties;

  std::string to_xml_text() const;
  static Result<PropertySet> from_xml_text(std::string_view text);

  bool operator==(const PropertySet&) const = default;
};

}  // namespace umiddle::upnp
