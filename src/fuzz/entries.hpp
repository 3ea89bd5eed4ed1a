// Fuzz entry points for the project's parsers and decoders (DESIGN.md §10).
//
// Each entry takes an arbitrary byte string and must never crash, hang or
// leak: parsers return Result errors for malformed input, and that contract is
// what these functions exercise. They exist as a tiny library so that
//
//   - tests/fuzz_smoke_test.cpp drives them with deterministic splitmix64
//     mutation fuzzing on every CI run (cheap, sanitizer-checked), and
//   - an out-of-tree libFuzzer/AFL target can link the same symbols
//     (`LLVMFuzzerTestOneInput` simply forwards to one of them) without any
//     test-framework baggage.
//
// Return value is an opaque "outcome class" (0 = parse error, 1 = parsed OK),
// so coverage-guided fuzzers can use it as a cheap feedback signal and the
// smoke test can assert both classes occur.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace umiddle::fuzz {

/// xml::parse on the bytes interpreted as UTF-8-ish text.
int fuzz_xml_parse(const std::uint8_t* data, std::size_t size);

/// xml::parse followed by core::parse_usdl on any well-formed document.
int fuzz_usdl_parse(const std::uint8_t* data, std::size_t size);

/// xml::parse, then core::TranslatorProfile::from_xml on the document's
/// <translator> child: the untrusted half of a directory announce advert.
/// Oracle: a failure is a parse_error or, for a repeated port name,
/// already_exists, and on success the profile re-serializes and parses back
/// to itself.
int fuzz_directory_advert(const std::uint8_t* data, std::size_t size);

/// core::umtp::decode_body on the raw bytes, then fuzz_stream_frames on a
/// length-prefixed copy, to exercise reassembly state.
/// Covers the whole frame surface including the delivery-contract additions:
/// deadline-stamped DATA, ACK/RESUME recovery frames, and SEQ replay wrappers
/// (whose inner body is validated eagerly, so nesting lies fail here too).
int fuzz_umtp_decode(const std::uint8_t* data, std::size_t size);

/// base64::decode on the bytes as text (the SOAP `$body64` payload surface).
/// Oracle on success: the output holds len/4*3 bytes minus the padding, and
/// re-encoding it decodes back to the same bytes. A violation aborts, which
/// both the smoke test and a coverage-guided fuzzer report as a crash.
int fuzz_base64_decode(const std::uint8_t* data, std::size_t size);

/// motes::Reading::decode on the raw bytes: the one binary decoder no stream
/// reader reaches. Oracle: a failure is a parse_error (too short) or a
/// protocol_error (unknown AM type or sensor kind), and on success the
/// reading re-encodes and decodes back to itself.
int fuzz_motes_reading(const std::uint8_t* data, std::size_t size);

/// Uri::parse on the bytes as text. Oracle: a failure is a parse_error, and
/// on success the URI prints and parses back to itself.
int fuzz_uri_parse(const std::uint8_t* data, std::size_t size);

/// MimeType::parse on the bytes as text. Oracle: a failure is a parse_error,
/// and on success the type prints and parses back to itself.
int fuzz_mime_parse(const std::uint8_t* data, std::size_t size);

/// upnp::PropertySet::from_xml_text on the bytes as a GENA NOTIFY body.
/// Oracle: a failure is a parse_error, and on success the property set
/// written by to_xml_text parses back to itself.
int fuzz_gena_property_set(const std::uint8_t* data, std::size_t size);

/// upnp::ActionResponse::from_envelope on the bytes as a SOAP response body.
/// Oracle: a failure is a parse_error, and on success the response written
/// by to_envelope parses back to itself.
int fuzz_soap_action_response(const std::uint8_t* data, std::size_t size);

/// upnp::ActionRequest::from_envelope on the bytes as a SOAP control POST:
/// the first line is the SOAPACTION header, the rest the body. Oracle: a
/// failure is a parse_error, and on success the request, written back as a
/// header line and an envelope, parses back to itself.
int fuzz_soap_action_request(const std::uint8_t* data, std::size_t size);

/// upnp::SoapFault::from_envelope on the bytes as a SOAP fault body. Oracle:
/// a failure is a parse_error, and on success the fault written by
/// to_envelope parses back to itself.
int fuzz_soap_fault(const std::uint8_t* data, std::size_t size);

/// ws::decode_method_response on the bytes as an XML-RPC reply body. Oracle:
/// a failure is a parse_error or, for a fault, refused, and on success the
/// parameter written by encode_method_response decodes back to itself.
int fuzz_ws_method_response(const std::uint8_t* data, std::size_t size);

/// ws::decode_notification on the bytes as a webhook body. Oracle: a failure
/// is a parse_error, and on success the parameter written by
/// encode_notification decodes back to itself.
int fuzz_ws_notification(const std::uint8_t* data, std::size_t size);

/// xml::parse, then core::Query::from_xml on the document: the query path a
/// remote UMTP CONNECT frame carries. Oracle on success: the query's XML
/// parses back to a query whose XML is the same.
int fuzz_query_xml(const std::uint8_t* data, std::size_t size);

/// rmi::Binding::parse on the bytes as text: one line of the RMI registry
/// listing. Oracle: a failure is a parse_error, and on success the binding
/// serializes and parses back to itself.
int fuzz_rmi_binding(const std::uint8_t* data, std::size_t size);

/// upnp::announcement_of on the bytes as one SSDP datagram: the one HTTP head
/// reader, then the NOTIFY and search-response fields. Oracle: a failure is a
/// parse_error, and on success the announcement, written as a NOTIFY and as
/// a search response by the one head writer, parses back to itself, max_age
/// included.
int fuzz_ssdp_datagram(const std::uint8_t* data, std::size_t size);

/// One stream protocol's FrameReader behind a type-erased feed that hands back
/// every complete frame re-encoded, so readers of different frame types
/// compare alike (DESIGN.md §7.6).
using FrameFeed =
    std::function<Result<void>(std::span<const std::uint8_t> chunk, std::vector<Bytes>& out)>;
struct StreamProtocol {
  const char* name;
  FrameFeed (*make_reader)();
};

/// Every stream protocol's reader: umtp, obex, mb, rmi_call, rmi_return,
/// sdp_request, sdp_response, hid and http (requests).
std::span<const StreamProtocol> stream_protocols();

/// data[0] picks a protocol from stream_protocols(); the rest is its byte
/// stream, fed whole to one reader and in uneven chunks to another. Oracle:
/// both give the same frames and the same verdict, and a reader that failed
/// keeps failing. Returns 1 when the stream fed cleanly and held a frame.
int fuzz_stream_frames(const std::uint8_t* data, std::size_t size);

}  // namespace umiddle::fuzz
