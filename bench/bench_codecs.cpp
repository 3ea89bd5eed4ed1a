// Ablation D — codec microbenchmarks (real CPU time).
//
// Supporting measurements for the substrates: the XML engine (USDL, SOAP),
// the OBEX and UMTP binary codecs, stream reassembly bursts, base64, and the
// MIME parse every received UMTP DATA frame pays.
// These run the actual encode / decode paths the protocol stacks exercise,
// under classic google-benchmark wall-clock timing (no simulation involved).
#include <benchmark/benchmark.h>

#include "bluetooth/obex.hpp"
#include "common/base64.hpp"
#include "common/mime.hpp"
#include "core/umtp.hpp"
#include "core/usdl.hpp"
#include "mediabroker/protocol.hpp"
#include "rmi/protocol.hpp"
#include "upnp/soap.hpp"
#include "xml/parser.hpp"
#include "xml/xml.hpp"

namespace {

using namespace umiddle;

const char* kUsdlDoc = R"USDL(
<usdl version="1">
  <service platform="upnp" match="urn:schemas-upnp-org:device:BinaryLight:1" name="UPnP Light">
    <shape>
      <digital-port name="power-on" direction="input" mime="application/x-upnp-control"/>
      <digital-port name="power-off" direction="input" mime="application/x-upnp-control"/>
      <physical-port name="glow" direction="output" tag="visible/light"/>
    </shape>
    <bindings>
      <binding port="power-on" kind="action">
        <native service="SwitchPower" action="SetPower"><arg name="Power" value="1"/></native>
      </binding>
      <binding port="power-off" kind="action">
        <native service="SwitchPower" action="SetPower"><arg name="Power" value="0"/></native>
      </binding>
    </bindings>
  </service>
</usdl>)USDL";

void BM_XmlParse(benchmark::State& state) {
  std::string doc(kUsdlDoc);
  for (auto _ : state) {
    auto parsed = xml::parse(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(doc.size()));
}

void BM_UsdlParse(benchmark::State& state) {
  std::string doc(kUsdlDoc);
  for (auto _ : state) {
    auto parsed = core::parse_usdl(doc);
    benchmark::DoNotOptimize(parsed);
  }
}

/// Base64 text of `n` payload bytes: the shape of a `$body64` SOAP argument.
std::string base64_text(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return base64::encode(data);
}

/// One marshal and unmarshal per iteration, as `ControlPoint::invoke` and the
/// device do: the request moves into its envelope, and the parsed request is
/// the next iteration's input, so no iteration copies the arguments.
void soap_round_trip(benchmark::State& state, upnp::ActionRequest request) {
  const std::string header = request.soap_action_header();
  for (auto _ : state) {
    std::string envelope = std::move(request).to_envelope();
    auto back = upnp::ActionRequest::from_envelope(envelope, header);
    if (!back.ok()) {
      state.SkipWithError("soap round trip failed");
      break;
    }
    request = std::move(back.value());
  }
}

void BM_SoapRoundTrip(benchmark::State& state) {
  upnp::ActionRequest request;
  request.service_type = "urn:schemas-upnp-org:service:SwitchPower:1";
  request.action = "SetPower";
  request.args.emplace("Power", "1");
  soap_round_trip(state, std::move(request));
}

// The camera→TV RenderImage call: an Arg-byte photo as a `$body64` argument.
void BM_SoapRoundTrip_Body64(benchmark::State& state) {
  upnp::ActionRequest request;
  request.service_type = "urn:schemas-upnp-org:service:RenderingControl:1";
  request.action = "RenderImage";
  request.args["Name"] = "dsc001.jpg";
  request.args["ImageData"] = base64_text(static_cast<std::size_t>(state.range(0)));
  soap_round_trip(state, std::move(request));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// Escaping base64 text: the scan finds nothing to rewrite, so this is the
// per-byte cost of the escapable-character search plus one bulk append.
void BM_XmlEscape(benchmark::State& state) {
  const std::string text = base64_text(static_cast<std::size_t>(state.range(0)) / 4 * 3);
  std::string out;
  for (auto _ : state) {
    out.clear();
    xml::escape_to(out, text);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}

void BM_ObexRoundTrip(benchmark::State& state) {
  bt::obex::Packet packet;
  packet.opcode = bt::obex::kOpPutFinal;
  packet.headers.push_back(bt::obex::Header::text(bt::obex::kHdrName, "dsc001.jpg"));
  packet.headers.push_back(
      bt::obex::Header::bytes(bt::obex::kHdrEndOfBody,
                              Bytes(static_cast<std::size_t>(state.range(0)), 0xD8)));
  for (auto _ : state) {
    Bytes wire = packet.encode();
    auto back = bt::obex::decode(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_UmtpRoundTrip(benchmark::State& state) {
  core::umtp::DataFrame frame;
  frame.dst = core::PortRef{TranslatorId(7), "image-in"};
  frame.message.type = MimeType::of("image/jpeg");
  frame.message.payload = Bytes(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    Bytes wire = core::umtp::encode(core::umtp::Frame{frame});
    std::vector<core::umtp::Frame> out;
    core::umtp::Reader assembler;
    auto r = assembler.feed(wire, out);
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// One feed of n back-to-back small frames into a fresh FrameReader: the cost
// of reassembly per frame once a backlog arrives at once. netsim delivers at
// most one MTU per chunk, so no workload feeds such a burst; this isolates the
// consume cursor (one buffer erase per feed, not one per frame).
template <typename Reader>
void burst(benchmark::State& state, const Bytes& frame) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bytes stream;
  stream.reserve(frame.size() * n);
  for (std::size_t i = 0; i < n; ++i) stream.insert(stream.end(), frame.begin(), frame.end());
  for (auto _ : state) {
    Reader reader;
    std::vector<typename Reader::Frame> out;
    auto r = reader.feed(stream, out);
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BurstUmtp(benchmark::State& state) {
  core::Message msg;
  msg.type = MimeType::of("text/plain");
  msg.payload = Bytes(64, 0x5A);
  burst<core::umtp::Reader>(state,
                            core::umtp::encode_data(core::PortRef{TranslatorId(7), "in"}, msg));
}

void BM_BurstMb(benchmark::State& state) {
  burst<mb::Reader>(state, mb::Frame{mb::Op::data, "cam-1", "", Bytes(64, 0x5A)}.encode());
}

void BM_BurstRmi(benchmark::State& state) {
  burst<rmi::CallReader>(state, rmi::encode_call(rmi::Call{"echo", "deliver", Bytes(64, 0x5A)}));
}

void BM_BurstObex(benchmark::State& state) {
  bt::obex::Packet packet;
  packet.opcode = bt::obex::kOpPut;
  packet.headers.push_back(bt::obex::Header::bytes(bt::obex::kHdrBody, Bytes(64, 0x5A)));
  burst<bt::obex::PacketReader>(state, packet.encode());
}

void BM_Base64(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    std::string encoded = base64::encode(data);
    auto decoded = base64::decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// The type of every DATA frame fanout_chaos and camera_tv receive: trim,
// validate and lowercase both parts through the ASCII text rules.
void BM_MimeParse(benchmark::State& state) {
  for (auto _ : state) {
    auto type = MimeType::parse("application/octet-stream");
    benchmark::DoNotOptimize(type);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_XmlParse);
BENCHMARK(BM_UsdlParse);
BENCHMARK(BM_SoapRoundTrip);
BENCHMARK(BM_SoapRoundTrip_Body64)->Arg(30000);
BENCHMARK(BM_XmlEscape)->Arg(64)->Arg(40000);
BENCHMARK(BM_ObexRoundTrip)->Arg(1400)->Arg(32000);
BENCHMARK(BM_UmtpRoundTrip)->Arg(1400)->Arg(32000);
BENCHMARK(BM_BurstUmtp)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_BurstMb)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_BurstRmi)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_BurstObex)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_Base64)->Arg(1400)->Arg(32000);
BENCHMARK(BM_MimeParse);

}  // namespace

BENCHMARK_MAIN();
