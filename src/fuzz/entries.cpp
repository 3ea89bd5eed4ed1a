#include "fuzz/entries.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string_view>

#include "bluetooth/hidp.hpp"
#include "bluetooth/obex.hpp"
#include "common/base64.hpp"
#include "common/mime.hpp"
#include "common/uri.hpp"
#include "core/profile.hpp"
#include "core/shape.hpp"
#include "core/umtp.hpp"
#include "core/usdl.hpp"
#include "mediabroker/protocol.hpp"
#include "motes/motes.hpp"
#include "rmi/protocol.hpp"
#include "rmi/registry.hpp"
#include "upnp/gena.hpp"
#include "upnp/http.hpp"
#include "upnp/soap.hpp"
#include "upnp/ssdp.hpp"
#include "webservice/service.hpp"
#include "xml/parser.hpp"

namespace umiddle::fuzz {
namespace {

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
};

std::string_view text_of(const std::uint8_t* data, std::size_t size) {
  return {reinterpret_cast<const char*>(data), size};
}

/// The decoder oracle on what `decode` made of the fuzz input: a failure
/// keeps one of the decoder's `failures`, and a decoded value comes back from
/// decoding its encoding. A violation aborts.
template <typename T, typename Decode, typename Encode>
int round_trips(const Result<T>& decoded, Decode decode, Encode encode,
                std::initializer_list<Errc> failures = {Errc::parse_error}) {
  if (!decoded.ok()) {
    if (std::ranges::find(failures, decoded.error().code) == failures.end()) std::abort();
    return 0;
  }
  auto again = decode(std::invoke(encode, decoded.value()));
  if (!again.ok() || !(again.value() == decoded.value())) std::abort();
  return 1;
}

}  // namespace

std::span<const StreamProtocol> stream_protocols() { return kStreamProtocols; }

int fuzz_xml_parse(const std::uint8_t* data, std::size_t size) {
  return xml::parse(text_of(data, size)).ok() ? 1 : 0;
}

int fuzz_usdl_parse(const std::uint8_t* data, std::size_t size) {
  auto doc = xml::parse(text_of(data, size));
  return doc.ok() && core::parse_usdl(doc.value()).ok() ? 1 : 0;
}

int fuzz_directory_advert(const std::uint8_t* data, std::size_t size) {
  auto doc = xml::parse(text_of(data, size));
  const xml::Element* tr = doc.ok() ? doc.value().child("translator") : nullptr;
  if (tr == nullptr) return 0;
  using core::TranslatorProfile;
  return round_trips(TranslatorProfile::from_xml(*tr), &TranslatorProfile::from_xml,
                     &TranslatorProfile::to_xml, {Errc::parse_error, Errc::already_exists});
}

int fuzz_umtp_decode(const std::uint8_t* data, std::size_t size) {
  // First the body decoder on the raw bytes (no length prefix): this is the
  // layer that must survive truncation, bit flips and lying inner lengths.
  auto frame = core::umtp::decode_body({data, size});

  // Then the UMTP reader on a length-prefixed copy, fed whole and in uneven
  // chunks so the reassembly state machine runs too. The prefix is the *true*
  // size; inner-length lies are already part of `data`.
  ByteWriter wire;
  wire.u8(0);  // stream_protocols()[0]: umtp
  wire.u32(static_cast<std::uint32_t>(size));
  wire.bytes({data, size});
  const int fed = fuzz_stream_frames(wire.data().data(), wire.size());
  // Both layers must agree on well-formedness of a correctly-prefixed frame.
  return frame.ok() && fed == 1 ? 1 : 0;
}

int fuzz_stream_frames(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const StreamProtocol& protocol = kStreamProtocols[data[0] % std::size(kStreamProtocols)];
  const std::span<const std::uint8_t> stream(data + 1, size - 1);
  FrameFeed whole = protocol.make_reader();
  FrameFeed split = protocol.make_reader();
  std::vector<Bytes> whole_frames;
  std::vector<Bytes> split_frames;
  const bool whole_ok = whole(stream, whole_frames).ok();
  bool split_ok = true;
  for (std::size_t off = 0; off < stream.size();) {
    const std::size_t n = std::min<std::size_t>(1 + (off * 7) % 13, stream.size() - off);
    const bool ok = split(stream.subspan(off, n), split_frames).ok();
    if (ok && !split_ok) std::abort();  // a poisoned reader resynchronised
    split_ok = split_ok && ok;
    off += n;
  }
  if (whole_ok != split_ok || whole_frames != split_frames) std::abort();
  return whole_ok && !whole_frames.empty() ? 1 : 0;
}

int fuzz_motes_reading(const std::uint8_t* data, std::size_t size) {
  using motes::Reading;
  return round_trips(Reading::decode({data, size}), &Reading::decode, &Reading::encode,
                     {Errc::parse_error, Errc::protocol_error});
}

int fuzz_base64_decode(const std::uint8_t* data, std::size_t size) {
  const std::string_view text = text_of(data, size);
  auto decoded = base64::decode(text);
  if (!decoded.ok()) return 0;
  std::size_t padding = 0;
  if (size >= 1 && text[size - 1] == '=') ++padding;
  if (size >= 2 && text[size - 2] == '=') ++padding;
  if (decoded.value().size() != size / 4 * 3 - padding) std::abort();
  auto again = base64::decode(base64::encode(decoded.value()));
  if (!again.ok() || again.value() != decoded.value()) std::abort();
  return 1;
}

int fuzz_uri_parse(const std::uint8_t* data, std::size_t size) {
  return round_trips(Uri::parse(text_of(data, size)), &Uri::parse, &Uri::to_string);
}

int fuzz_mime_parse(const std::uint8_t* data, std::size_t size) {
  return round_trips(MimeType::parse(text_of(data, size)), &MimeType::parse,
                     &MimeType::to_string);
}

int fuzz_gena_property_set(const std::uint8_t* data, std::size_t size) {
  using upnp::PropertySet;
  return round_trips(PropertySet::from_xml_text(text_of(data, size)),
                     &PropertySet::from_xml_text, &PropertySet::to_xml_text);
}

int fuzz_soap_action_response(const std::uint8_t* data, std::size_t size) {
  using upnp::ActionResponse;
  return round_trips(ActionResponse::from_envelope(text_of(data, size)),
                     &ActionResponse::from_envelope, &ActionResponse::to_envelope);
}

int fuzz_soap_action_request(const std::uint8_t* data, std::size_t size) {
  using upnp::ActionRequest;
  // The SOAPACTION header, a newline, then the envelope. With no newline,
  // npos + 1 wraps to 0 and the whole text is both.
  auto decode = [](std::string_view text) {
    const std::size_t eol = text.find('\n');
    return ActionRequest::from_envelope(text.substr(eol + 1), text.substr(0, eol));
  };
  return round_trips(decode(text_of(data, size)), decode, [](ActionRequest request) {
    return request.soap_action_header() + "\n" + std::move(request).to_envelope();
  });
}

int fuzz_soap_fault(const std::uint8_t* data, std::size_t size) {
  using upnp::SoapFault;
  return round_trips(SoapFault::from_envelope(text_of(data, size)), &SoapFault::from_envelope,
                     &SoapFault::to_envelope);
}

int fuzz_ws_method_response(const std::uint8_t* data, std::size_t size) {
  return round_trips(ws::decode_method_response(text_of(data, size)),
                     &ws::decode_method_response, &ws::encode_method_response,
                     {Errc::parse_error, Errc::refused});
}

int fuzz_ws_notification(const std::uint8_t* data, std::size_t size) {
  return round_trips(ws::decode_notification(text_of(data, size)), &ws::decode_notification,
                     &ws::encode_notification);
}

int fuzz_query_xml(const std::uint8_t* data, std::size_t size) {
  auto doc = xml::parse(text_of(data, size));
  if (!doc.ok()) return 0;
  auto query = core::Query::from_xml(doc.value());
  if (!query.ok()) return 0;
  const std::string text = query.value().to_xml().to_string();
  auto reparsed = xml::parse(text);
  if (!reparsed.ok()) std::abort();
  auto again = core::Query::from_xml(reparsed.value());
  if (!again.ok() || again.value().to_xml().to_string() != text) std::abort();
  return 1;
}

int fuzz_rmi_binding(const std::uint8_t* data, std::size_t size) {
  return round_trips(rmi::Binding::parse(text_of(data, size)), &rmi::Binding::parse,
                     &rmi::Binding::serialize);
}

int fuzz_ssdp_datagram(const std::uint8_t* data, std::size_t size) {
  auto a = upnp::announcement_of(text_of(data, size));
  if (!a.ok()) {
    // A failure keeps its error: the head's or the announcement's parse_error.
    if (a.error().code != Errc::parse_error) std::abort();
    return 0;
  }
  // Written as a NOTIFY and as a search response, the announcement parses
  // back to itself. A byebye carries no location and no max-age.
  const upnp::SsdpAnnouncement& got = a.value();
  const upnp::SsdpAnnouncement bye{got.notification_type, got.usn, "", false, 0};
  auto notified = upnp::announcement_of(to_string(upnp::notify_datagram(got, got.alive)));
  auto answered = upnp::announcement_of(to_string(upnp::search_response_datagram(got)));
  if (!notified.ok() || notified.value() != (got.alive ? got : bye) ||
      (got.alive && (!answered.ok() || answered.value() != got))) {
    std::abort();
  }
  return 1;
}

}  // namespace umiddle::fuzz
