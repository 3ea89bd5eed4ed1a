#include "fuzz/entries.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string_view>
#include <type_traits>

#include "bluetooth/hidp.hpp"
#include "bluetooth/obex.hpp"
#include "common/base64.hpp"
#include "common/mime.hpp"
#include "common/uri.hpp"
#include "core/directory.hpp"
#include "core/profile.hpp"
#include "core/shape.hpp"
#include "core/umtp.hpp"
#include "core/usdl.hpp"
#include "mediabroker/protocol.hpp"
#include "motes/motes.hpp"
#include "rmi/protocol.hpp"
#include "rmi/registry.hpp"
#include "upnp/description.hpp"
#include "upnp/gena.hpp"
#include "upnp/http.hpp"
#include "upnp/soap.hpp"
#include "upnp/ssdp.hpp"
#include "webservice/service.hpp"
#include "xml/parser.hpp"

namespace umiddle::fuzz {
namespace {

using Input = std::span<const std::uint8_t>;

template <typename Reader, typename Encode>
FrameFeed feed_of(Encode encode) {
  return [reader = std::make_shared<Reader>(), encode](std::span<const std::uint8_t> chunk,
                                                       std::vector<Bytes>& out) {
    std::vector<typename Reader::Frame> frames;
    auto r = reader->feed(chunk, frames);
    for (const auto& frame : frames) out.push_back(std::invoke(encode, frame));
    return r;
  };
}

const StreamProtocol kStreamProtocols[] = {
    {"umtp", [] { return feed_of<core::umtp::Reader>(&core::umtp::encode); }},
    {"obex", [] { return feed_of<bt::obex::PacketReader>(&bt::obex::Packet::encode); }},
    {"mb", [] { return feed_of<mb::Reader>(&mb::Frame::encode); }},
    {"rmi_call", [] { return feed_of<rmi::CallReader>(&rmi::encode_call); }},
    {"rmi_return", [] { return feed_of<rmi::ReturnReader>(&rmi::encode_return); }},
    {"sdp_request", [] { return feed_of<bt::SdpRequestReader>(&bt::SdpRequest::encode); }},
    {"sdp_response", [] { return feed_of<bt::SdpResponseReader>(&bt::SdpResponse::encode); }},
    {"hid", [] { return feed_of<bt::HidReader>(&bt::MouseReport::encode); }},
    {"http", [] { return feed_of<upnp::HttpRequestReader>(&upnp::HttpRequest::to_wire); }},
    {"mb_wire", [] { return feed_of<mb::WireReader>(&mb::WireFrame::encode); }},
};

std::string_view text_of(Input in) { return {reinterpret_cast<const char*>(in.data()), in.size()}; }

/// The one decoder oracle, on what a row's decoder made of the fuzz input: a
/// failure keeps one of the row's `failures`, and a decoded value comes back
/// from decoding its encoding. A violation aborts.
template <typename T, typename Decode, typename Encode>
int round_trips(const Result<T>& decoded, Decode decode, Encode encode,
                std::initializer_list<Errc> failures = {Errc::parse_error}) {
  if (!decoded.ok()) {
    if (std::ranges::find(failures, decoded.error().code) == failures.end()) std::abort();
    return 0;
  }
  auto again = std::invoke(decode, std::invoke(encode, decoded.value()));
  if (!again.ok() || !(again.value() == decoded.value())) std::abort();
  return 1;
}

/// The usual row: `decode` on the input, as text or as bytes, whichever it
/// reads, under the oracle. A failure is a parse_error or one of `also`.
template <auto decode, auto encode, Errc... also>
int row(Input in) {
  if constexpr (std::is_invocable_v<decltype(decode), std::string_view>) {
    return round_trips(decode(text_of(in)), decode, encode, {Errc::parse_error, also...});
  } else {
    return round_trips(decode(in), decode, encode, {Errc::parse_error, also...});
  }
}

/// data[0] picks a protocol from kStreamProtocols; the rest is its byte
/// stream, fed whole to one reader and in uneven chunks to another. Both give
/// the same frames and the same verdict, and a reader that failed keeps
/// failing. The frames, re-encoded back to back, are what a fresh reader
/// makes of them. Returns 1 when the stream fed cleanly and held a frame.
int stream_round_trips(Input in) {
  if (in.empty()) return 0;
  const StreamProtocol& protocol = kStreamProtocols[in[0] % std::size(kStreamProtocols)];
  const Input stream = in.subspan(1);
  FrameFeed split = protocol.make_reader();
  std::vector<Bytes> split_frames;
  bool split_ok = true;
  for (std::size_t off = 0; off < stream.size();) {
    const std::size_t n = std::min<std::size_t>(1 + (off * 7) % 13, stream.size() - off);
    const bool ok = split(stream.subspan(off, n), split_frames).ok();
    if (ok && !split_ok) std::abort();  // a poisoned reader resynchronised
    split_ok = split_ok && ok;
    off += n;
  }
  std::vector<Bytes> frames;
  const Result<void> whole = protocol.make_reader()(stream, frames);
  if (whole.ok() != split_ok || frames != split_frames) std::abort();
  auto decode = [&protocol](Input bytes) -> Result<std::vector<Bytes>> {
    std::vector<Bytes> again;
    if (auto r = protocol.make_reader()(bytes, again); !r.ok()) return r.error();
    return again;
  };
  auto concat = [](const std::vector<Bytes>& decoded) {
    Bytes wire;
    for (const Bytes& frame : decoded) wire.insert(wire.end(), frame.begin(), frame.end());
    return wire;
  };
  const bool held = !frames.empty();
  const int fed = round_trips(whole.ok() ? Result(std::move(frames)) : whole.error(), decode,
                              concat, {Errc::parse_error, Errc::protocol_error});
  return held ? fed : 0;
}

/// core::umtp::decode_body on the raw bytes agrees with the stream row's UMTP
/// reader on a length-prefixed copy, which runs the reassembly state and the
/// round trip. That covers the delivery-contract frames too: deadline-stamped
/// DATA, ACK/RESUME, and SEQ replay wrappers (whose inner body is validated
/// eagerly, so nesting lies fail here). The prefix is the true size;
/// inner-length lies are already part of the input.
int umtp_round_trips(Input body) {
  ByteWriter wire;
  wire.u8(0);  // kStreamProtocols[0]: umtp
  wire.u32(static_cast<std::uint32_t>(body.size()));
  wire.bytes(body);
  const int fed = stream_round_trips(wire.data());
  if (core::umtp::decode_body(body).ok() != (fed == 1)) std::abort();
  return fed;
}

std::string xml_text(const xml::Element& doc) { return doc.to_string(); }

Result<core::UsdlDocument> usdl_of(std::string_view text) { return core::parse_usdl(text); }

/// The <translator> profile of a directory announce: the untrusted half of an
/// advert, back in an advert of its own.
Result<core::TranslatorProfile> advert_of(std::string_view text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return doc.error();
  const xml::Element* tr = doc.value().child("translator");
  if (tr == nullptr) return make_error(Errc::parse_error, "advert: no <translator>");
  return core::TranslatorProfile::from_xml(*tr);
}

std::string advert_text(const core::TranslatorProfile& profile) {
  return core::announce_text(profile, core::NodeInfo{profile.node, {}, 0});
}

/// The query path a remote UMTP CONNECT frame carries.
Result<core::Query> query_of(std::string_view text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return doc.error();
  return core::Query::from_xml(doc.value());
}

std::string query_text(const core::Query& query) { return query.to_xml().to_string(); }

/// An XML-RPC request as WsService reads it from any client.
std::string method_call_text(const std::pair<std::string, Bytes>& call) {
  return ws::encode_method_call(call.first, call.second);
}

/// The SOAP `$body64` payload surface. On success the output also holds
/// len/4*3 bytes minus the padding.
Result<Bytes> base64_of(std::string_view text) {
  auto decoded = base64::decode(text);
  const auto tail = text.substr(text.size() - std::min<std::size_t>(text.size(), 2));
  const auto padding = static_cast<std::size_t>(std::ranges::count(tail, '='));
  if (decoded.ok() && decoded.value().size() != text.size() / 4 * 3 - padding) std::abort();
  return decoded;
}

/// A SOAP control POST: the SOAPACTION header, a newline, then the envelope.
/// With no newline, npos + 1 wraps to 0 and the whole text is both.
Result<upnp::ActionRequest> request_of(std::string_view text) {
  const std::size_t eol = text.find('\n');
  return upnp::ActionRequest::from_envelope(text.substr(eol + 1), text.substr(0, eol));
}

std::string request_text(upnp::ActionRequest request) {
  return request.soap_action_header() + "\n" + std::move(request).to_envelope();
}

/// One SSDP datagram through the one HTTP head reader, as a NOTIFY keeps it: a
/// byebye carries no location and no max-age. It parses back to itself
/// written as a NOTIFY and, when alive, as a search response.
Result<upnp::SsdpAnnouncement> notified_of(std::string_view datagram) {
  auto a = upnp::announcement_of(datagram);
  if (!a.ok() || a.value().alive) return a;
  return upnp::SsdpAnnouncement{a.value().notification_type, a.value().usn, "", false, 0};
}

std::string notify_text(const upnp::SsdpAnnouncement& a) {
  return to_string(upnp::notify_datagram(a, a.alive));
}

std::string search_response_text(const upnp::SsdpAnnouncement& a) {
  return to_string(upnp::search_response_datagram(a));
}

int ssdp_round_trips(Input in) {
  auto got = notified_of(text_of(in));
  if (got.ok() && got.value().alive) round_trips(got, &notified_of, &search_response_text);
  return round_trips(got, &notified_of, &notify_text);
}

using motes::Reading;
using upnp::ActionResponse;
using upnp::DeviceDescription;
using upnp::PropertySet;
using upnp::SoapFault;

/// A failure that is not a parse_error: a repeated port name in an advert is
/// already_exists, an unknown motes AM type or sensor kind a protocol_error,
/// and a WS fault reply refused.
const Target kTargets[] = {
    {"xml", row<&xml::parse, &xml_text>},
    {"usdl", row<&usdl_of, &core::usdl_text>},
    {"directory_advert", row<&advert_of, &advert_text, Errc::already_exists>},
    {"umtp", &umtp_round_trips},
    {"base64", row<&base64_of, &base64::encode>},
    {"motes_reading", row<&Reading::decode, &Reading::encode, Errc::protocol_error>},
    {"uri", row<&Uri::parse, &Uri::to_string>},
    {"mime", row<&MimeType::parse, &MimeType::to_string>},
    {"query", row<&query_of, &query_text>},
    {"rmi_binding", row<&rmi::Binding::parse, &rmi::Binding::serialize>},
    {"ssdp_datagram", &ssdp_round_trips},
    {"gena_property_set", row<&PropertySet::from_xml_text, &PropertySet::to_xml_text>},
    {"soap_action_response", row<&ActionResponse::from_envelope, &ActionResponse::to_envelope>},
    {"soap_action_request", row<&request_of, &request_text>},
    {"soap_fault", row<&SoapFault::from_envelope, &SoapFault::to_envelope>},
    {"ws_method_call", row<&ws::decode_method_call, &method_call_text>},
    {"ws_method_response",
     row<&ws::decode_method_response, &ws::encode_method_response, Errc::refused>},
    {"ws_notification", row<&ws::decode_notification, &ws::encode_notification>},
    {"upnp_description", row<&DeviceDescription::from_xml_text, &DeviceDescription::to_xml_text>},
    {"stream", &stream_round_trips},
};

}  // namespace

std::span<const Target> targets() { return kTargets; }

std::span<const StreamProtocol> stream_protocols() { return kStreamProtocols; }

}  // namespace umiddle::fuzz
