#include "upnp/soap.hpp"

#include <limits>

#include "common/strings.hpp"
#include "xml/parser.hpp"

namespace umiddle::upnp {
namespace {

constexpr const char* kSoapNs = "http://schemas.xmlsoap.org/soap/envelope/";

xml::Element envelope_with(xml::Element body_child) {
  xml::Element env("s:Envelope");
  env.set_attr("xmlns:s", kSoapNs);
  env.set_attr("s:encodingStyle", "http://schemas.xmlsoap.org/soap/encoding/");
  env.add_child("s:Body").add_child(std::move(body_child));
  return env;
}

/// The call or response element inside Body. Mutable so that parsers, which
/// own the tree, can move argument values out of it instead of copying.
Result<xml::Element*> body_first_child(xml::Element& root) {
  if (root.local_name() != "Envelope") {
    return make_error(Errc::parse_error, "soap: root is not Envelope");
  }
  xml::Element* body = root.child("Body");
  if (body == nullptr || body->children().empty()) {
    return make_error(Errc::parse_error, "soap: missing Body");
  }
  return &body->children().front();
}

}  // namespace

std::string ActionRequest::to_envelope() && {
  xml::Element call("u:" + action);
  call.set_attr("xmlns:u", service_type);
  for (auto& [k, v] : args) call.add_child(k).set_text(std::move(v));
  return envelope_with(std::move(call)).to_string(/*declaration=*/true);
}

std::string ActionRequest::soap_action_header() const {
  return "\"" + service_type + "#" + action + "\"";
}

Result<ActionRequest> ActionRequest::from_envelope(std::string_view body,
                                                   std::string_view soap_action_header) {
  auto root = xml::parse(body);
  if (!root.ok()) return root.error();
  auto call = body_first_child(root.value());
  if (!call.ok()) return call.error();

  ActionRequest req;
  req.action = std::string(call.value()->local_name());
  // Service type from the SOAPACTION header: "urn:...#Action".
  std::string_view header = strings::trim(soap_action_header);
  if (header.size() >= 2 && header.front() == '"' && header.back() == '"') {
    header = header.substr(1, header.size() - 2);
  }
  std::size_t hash = header.find('#');
  if (hash == std::string_view::npos) {
    return make_error(Errc::parse_error, "soap: bad SOAPACTION header");
  }
  req.service_type = std::string(header.substr(0, hash));
  if (header.substr(hash + 1) != req.action) {
    return make_error(Errc::parse_error, "soap: SOAPACTION mismatches body action");
  }
  for (xml::Element& arg : call.value()->children()) {
    req.args[std::string(arg.local_name())] = arg.take_text();
  }
  return req;
}

std::string ActionResponse::to_envelope() const {
  xml::Element resp("u:" + action + "Response");
  resp.set_attr("xmlns:u", service_type);
  for (const auto& [k, v] : args) resp.add_child(std::move(k)).set_text(v);
  return envelope_with(std::move(resp)).to_string(/*declaration=*/true);
}

Result<ActionResponse> ActionResponse::from_envelope(std::string_view body) {
  auto root = xml::parse(body);
  if (!root.ok()) return root.error();
  auto child = body_first_child(root.value());
  if (!child.ok()) return child.error();
  std::string_view name = child.value()->local_name();
  if (!strings::ends_with(name, "Response")) {
    return make_error(Errc::parse_error, "soap: not an action response: " + std::string(name));
  }
  ActionResponse resp;
  resp.action = std::string(name.substr(0, name.size() - 8));
  resp.service_type = std::string(child.value()->attr("xmlns:u"));
  for (xml::Element& arg : child.value()->children()) {
    resp.args[std::string(arg.local_name())] = arg.take_text();
  }
  return resp;
}

std::string SoapFault::to_envelope() const {
  xml::Element fault("s:Fault");
  fault.add_child("faultcode").set_text("s:Client");
  fault.add_child("faultstring").set_text("UPnPError");
  xml::Element& detail = fault.add_child("detail");
  xml::Element& err = detail.add_child("UPnPError");
  err.set_attr("xmlns", "urn:schemas-upnp-org:control-1-0");
  err.add_child("errorCode").set_text(std::to_string(error_code));
  err.add_child("errorDescription").set_text(description);
  return envelope_with(std::move(fault)).to_string(/*declaration=*/true);
}

Result<SoapFault> SoapFault::from_envelope(std::string_view body) {
  auto root = xml::parse(body);
  if (!root.ok()) return root.error();
  const xml::Element* fault = root.value().find("Fault");
  if (fault == nullptr) return make_error(Errc::parse_error, "soap: no Fault element");
  SoapFault out;
  if (const xml::Element* err = fault->find("UPnPError"); err != nullptr) {
    // A code that does not fit an int keeps the default, as a missing one does.
    std::uint64_t code = 0;
    if (strings::parse_u64(err->child_text("errorCode"), code) &&
        code <= static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      out.error_code = static_cast<int>(code);
    }
    out.description = std::string(err->child_text("errorDescription"));
  }
  return out;
}

}  // namespace umiddle::upnp
