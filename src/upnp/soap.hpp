// SOAP 1.1 control messages (UPnP's base control protocol, paper §2.1).
#pragma once

#include <map>
#include <string>

#include "common/result.hpp"
#include "xml/xml.hpp"

namespace umiddle::upnp {

struct ActionRequest {
  std::string service_type;  ///< e.g. "urn:schemas-upnp-org:service:SwitchPower:1"
  std::string action;        ///< e.g. "SetPower"
  std::map<std::string, std::string> args;

  /// Full SOAP envelope as posted to the control URL. Consumes the request:
  /// each argument moves into the envelope instead of being copied.
  std::string to_envelope() &&;
  /// Value of the SOAPACTION header.
  std::string soap_action_header() const;

  static Result<ActionRequest> from_envelope(std::string_view body,
                                             std::string_view soap_action_header);

  bool operator==(const ActionRequest&) const = default;
};

struct ActionResponse {
  std::string service_type;
  std::string action;
  std::map<std::string, std::string> args;  ///< out-arguments

  std::string to_envelope() const;
  static Result<ActionResponse> from_envelope(std::string_view body);

  bool operator==(const ActionResponse&) const = default;
};

/// UPnP SOAP fault (error 401 Invalid Action etc. carried in a 500 response).
struct SoapFault {
  int error_code = 501;
  std::string description = "Action Failed";

  std::string to_envelope() const;
  static Result<SoapFault> from_envelope(std::string_view body);

  bool operator==(const SoapFault&) const = default;
};

}  // namespace umiddle::upnp
