// Deterministic mutation-fuzz smoke test over the fuzz table (DESIGN.md §7.6):
// one parameterized test drives every row of fuzz::targets()
// (src/fuzz/entries.hpp) with ≥10k splitmix64-mutated inputs derived from the
// row's small valid corpus — bit flips, byte stomps, truncations, extensions
// and (for UMTP) length-prefix lies. Each row keeps its own corpus and seed.
//
// The contract under test is the Result discipline and the one oracle:
// malformed input must come back as one of the row's error codes, never as a
// crash, hang, or sanitizer finding, and a decoded value must decode back from
// its encoding. This runs under ASan/UBSan in CI (label `chaos`); the same
// rows can be linked into an out-of-tree libFuzzer target for coverage-guided
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bluetooth/hidp.hpp"
#include "bluetooth/obex.hpp"
#include "common/base64.hpp"
#include "common/bytes.hpp"
#include "common/rand.hpp"
#include "core/umtp.hpp"
#include "fuzz/entries.hpp"
#include "mediabroker/protocol.hpp"
#include "motes/motes.hpp"
#include "rmi/protocol.hpp"
#include "upnp/description.hpp"
#include "upnp/gena.hpp"
#include "upnp/http.hpp"
#include "upnp/soap.hpp"
#include "upnp/ssdp.hpp"
#include "webservice/service.hpp"

namespace umiddle {

namespace fuzz {
void PrintTo(const Target& target, std::ostream* os) { *os << target.name; }
}  // namespace fuzz

namespace {

using Corpus = std::vector<Bytes>;

/// The largest input a mutation leaves, to keep the smoke run fast. A corpus
/// item longer than this would make every mutation a truncation.
constexpr std::size_t kMaxInput = 512;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// One corpus item per text, in order.
Corpus texts(std::initializer_list<std::string> items) {
  Corpus corpus;
  for (const std::string& item : items) corpus.push_back(bytes_of(item));
  return corpus;
}

/// Mutate one corpus item: a deterministic stack of small corruptions.
Bytes mutate(const Bytes& seed, Rng& rng) {
  Bytes out = seed;
  const std::size_t n_mutations = 1 + rng.below(4);
  for (std::size_t m = 0; m < n_mutations; ++m) {
    switch (rng.below(5)) {
      case 0:  // bit flip
        if (!out.empty()) out[rng.below(out.size())] ^= std::uint8_t(1u << rng.below(8));
        break;
      case 1:  // byte stomp
        if (!out.empty()) out[rng.below(out.size())] = std::uint8_t(rng.below(256));
        break;
      case 2:  // truncate
        if (!out.empty()) out.resize(rng.below(out.size()));
        break;
      case 3: {  // splice-in garbage
        const std::size_t extra = rng.below(16);
        const std::size_t at = out.empty() ? 0 : rng.below(out.size());
        Bytes garbage(extra);
        for (auto& b : garbage) b = std::uint8_t(rng.below(256));
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), garbage.begin(),
                   garbage.end());
        break;
      }
      default:  // duplicate a chunk (nesting/length confusion)
        if (out.size() >= 2) {
          const std::size_t at = rng.below(out.size() - 1);
          const std::size_t len = 1 + rng.below(out.size() - at);
          Bytes chunk(out.begin() + static_cast<std::ptrdiff_t>(at),
                      out.begin() + static_cast<std::ptrdiff_t>(at + len));
          out.insert(out.end(), chunk.begin(), chunk.end());
        }
        break;
    }
    if (out.size() > kMaxInput) out.resize(kMaxInput);
  }
  return out;
}

constexpr int kRounds = 10000;

Corpus xml_corpus() {
  return {
      bytes_of("<umiddle-adv type=\"announce\" node=\"7\" host=\"h1\" umtp-port=\"7701\">"
               "<translator id=\"30064771073\" name=\"Camera\" platform=\"bluetooth\""
               " device-type=\"BIP\" node=\"7\"><shape>"
               "<digital-port name=\"image-out\" direction=\"output\" mime=\"image/jpeg\"/>"
               "</shape></translator></umiddle-adv>"),
      bytes_of("<a><b c=\"1\">text &amp; entities</b><!-- comment --><d/></a>"),
      bytes_of("<root xmlns=\"x\"><empty/><nested><deep><deeper>v</deeper></deep></nested>"
               "</root>"),
  };
}

Corpus usdl_corpus() {
  return {
      bytes_of("<usdl version=\"1\">"
               "<service platform=\"upnp\" match=\"urn:x:device:Light:1\" name=\"Light\">"
               "<shape>"
               "<digital-port name=\"on\" direction=\"input\" mime=\"application/x-ctl\"/>"
               "<physical-port name=\"glow\" direction=\"output\" tag=\"visible/light\"/>"
               "</shape><bindings><binding port=\"on\" kind=\"action\">"
               "<native service=\"SwitchPower\" action=\"SetPower\">"
               "<arg name=\"Power\" value=\"1\"/></native>"
               "</binding></bindings></service></usdl>"),
      bytes_of("<usdl version=\"1\">"
               "<service platform=\"bluetooth\" match=\"1111\" name=\"Cam\">"
               "<shape>"
               "<digital-port name=\"image-out\" direction=\"output\" mime=\"image/jpeg\"/>"
               "</shape><bindings><binding port=\"image-out\" kind=\"obex-push-sink\">"
               "<native type=\"x-bt/img-img\"/></binding></bindings></service></usdl>"),
  };
}

Corpus directory_advert_corpus() {
  return {
      bytes_of("<umiddle-adv type=\"announce\" node=\"7\" host=\"h1\" umtp-port=\"7701\">"
               "<translator id=\"30064771073\" name=\"Camera\" platform=\"bluetooth\""
               " device-type=\"BIP\" node=\"7\"><shape>"
               "<digital-port name=\"image-out\" direction=\"output\" mime=\"image/jpeg\"/>"
               "</shape></translator></umiddle-adv>"),
      bytes_of("<umiddle-adv type=\"announce\" node=\"3\" host=\"h2\" umtp-port=\"7702\">"
               "<translator id=\"12884901890\" name=\"Printer &amp; Co\" platform=\"upnp\""
               " device-type=\"urn:x:device:Printer:1\" node=\"3\"><shape>"
               "<digital-port name=\"doc-in\" direction=\"input\" mime=\"text/*\"/>"
               "<physical-port name=\"paper\" direction=\"output\" tag=\"visible/paper\"/>"
               "</shape></translator></umiddle-adv>"),
  };
}

Corpus umtp_corpus() {
  namespace umtp = core::umtp;
  Corpus corpus;
  auto strip_prefix = [](Bytes wire) {
    wire.erase(wire.begin(), wire.begin() + 4);  // entry adds a true prefix back
    return wire;
  };
  core::Message msg;
  msg.type = MimeType::of("image/jpeg");
  msg.payload = Bytes(64, 0xD8);
  msg.meta["name"] = "fuzz.jpg";
  corpus.push_back(strip_prefix(
      umtp::encode_data(core::PortRef{TranslatorId(42), "image-in"}, msg)));
  umtp::ConnectFrame conn;
  conn.path = PathId(7);
  conn.src = core::PortRef{TranslatorId(42), "image-out"};
  conn.dst = core::PortRef{TranslatorId(43), "image-in"};
  corpus.push_back(strip_prefix(umtp::encode(umtp::Frame{conn})));
  umtp::ConnectFrame query_conn;
  query_conn.path = PathId(8);
  query_conn.src = core::PortRef{TranslatorId(42), "image-out"};
  query_conn.dst = core::Query().digital_input(MimeType::of("image/*"));
  corpus.push_back(strip_prefix(umtp::encode(umtp::Frame{query_conn})));
  corpus.push_back(
      strip_prefix(umtp::encode(umtp::Frame{umtp::DisconnectFrame{PathId(9)}})));
  // Delivery-contract frames (DESIGN.md §11): deadline-stamped DATA, the
  // RESUME/ACK recovery handshake, and a SEQ-wrapped replay.
  corpus.push_back(strip_prefix(umtp::encode_data(
      core::PortRef{TranslatorId(42), "image-in"}, msg, /*deadline_ns=*/1234567890)));
  umtp::ResumeFrame resume;
  resume.node = NodeId(7);
  resume.epoch = 11;
  resume.prev_channel = 11;
  resume.base_seq = 3;
  corpus.push_back(strip_prefix(umtp::encode(umtp::Frame{resume})));
  corpus.push_back(strip_prefix(umtp::encode_seq(
      5, umtp::encode_data(core::PortRef{TranslatorId(42), "image-in"}, msg))));
  // ACK is hand-assembled: constructing AckFrame{...} outside the transport
  // session machinery is banned by the `ack-origin` lint rule.
  ByteWriter ack;
  ack.u32(17);  // u8 type + u64 epoch + u64 count
  ack.u8(5);    // FrameType::ack
  ack.u64(11);
  ack.u64(4);
  corpus.push_back(strip_prefix(ack.take()));
  return corpus;
}

Corpus base64_corpus() {
  // Every tail shape: no padding, one '=', two '=', and a multi-group body.
  Corpus corpus;
  for (std::size_t len : {1u, 2u, 3u, 47u, 100u, 300u}) {
    Bytes data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    corpus.push_back(bytes_of(base64::encode(data)));
  }
  return corpus;
}

Corpus motes_corpus() {
  Corpus corpus;
  for (std::uint16_t id : {1, 7, 300}) {
    for (auto kind : {motes::SensorKind::light, motes::SensorKind::temperature,
                      motes::SensorKind::humidity}) {
      corpus.push_back(motes::Reading{id, kind, static_cast<std::uint16_t>(100 + id), 42}.encode());
    }
  }
  return corpus;
}

Corpus uri_corpus() {
  return texts({"http://192.168.0.10:8080/upnp/control/SwitchPower", "mb://broker/",
                "rmi://host:1099", "HTTP://Camera.local/photo?id=7", "ws://a:b:80/x y",
                "http://h:080/"});
}

Corpus mime_corpus() {
  return texts({"image/jpeg", "text/plain", "*/*", "image/*", "Audio/WAV",
                "application/x-control", "visible/paper"});
}

Corpus query_corpus() {
  return texts({"<query platform=\"upnp\"><port kind=\"digital\" direction=\"input\""
                " type=\"image/jpeg\"/></query>",
                "<query name-contains=\"Camera\"><port direction=\"output\" type=\"image/*\"/>"
                "<port kind=\"digital\"/></query>",
                "<query><port kind=\"physical\" direction=\"output\" type=\"visible/paper\"/>"
                "</query>",
                "<query platform=\"a&amp;b\"/>"});
}

Corpus rmi_binding_corpus() {
  return texts({"camera|urn:Camera|host1|1099", "printer|Printer|10.0.0.7|65535", "x||h|1",
                "a b|c:d|e|0080"});
}

/// Announcements as SsdpAgent writes them, and one as another stack might:
/// mixed-case names, spaces around the colon and the max-age `=`, a header
/// SSDP does not read and a body after the blank line.
Corpus ssdp_corpus() {
  const upnp::SsdpAnnouncement lamp{"urn:schemas-upnp-org:device:BinaryLight:1",
                                    "uuid:lamp-1::urn:schemas-upnp-org:device:BinaryLight:1",
                                    "http://lamp:80/description.xml", true, 1800};
  return {upnp::notify_datagram(lamp, true), upnp::notify_datagram(lamp, false),
          upnp::search_response_datagram(lamp),
          bytes_of("HTTP/1.1 200 OK\r\nCache-Control : max-age = 60\r\nEXT:\r\n"
                   "St: upnp:rootdevice\r\nusn: uuid:tv::upnp:rootdevice\r\n"
                   "Location: http://tv:49152/d.xml\r\n\r\ntrailing")};
}

/// Property sets as a device's NOTIFY carries them, and one as another stack
/// might write it: another prefix, an empty value and an escaped one.
Corpus gena_corpus() {
  return {bytes_of(upnp::PropertySet{{{"Status", "1"}, {"Target", "0"}}}.to_xml_text()),
          bytes_of(upnp::PropertySet{{{"Power", "on & off"}}}.to_xml_text()),
          bytes_of("<?xml version=\"1.0\"?><ev:propertyset xmlns:ev=\"urn:x\">"
                   "<ev:property><Volume>42</Volume></ev:property>"
                   "<ev:property><Mute/></ev:property></ev:propertyset>")};
}

/// Action responses as UpnpDevice writes them, and one as another stack might
/// write it: another prefix and an empty out-argument.
Corpus soap_response_corpus() {
  return {bytes_of(upnp::ActionResponse{"urn:schemas-upnp-org:service:SwitchPower:1",
                                        "GetStatus", {{"ResultStatus", "1"}}}
                       .to_envelope()),
          bytes_of(upnp::ActionResponse{"urn:x:service:Printer:1", "Print",
                                        {{"JobId", "7"}, {"Note", "a<b"}}}
                       .to_envelope()),
          bytes_of("<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">"
                   "<s:Body><m:SetPowerResponse xmlns:m=\"urn:x\"><Note/></m:SetPowerResponse>"
                   "</s:Body></s:Envelope>")};
}

/// Action requests as ControlPoint posts them (the SOAPACTION header line,
/// then the envelope), and one as another stack might write it: an unquoted
/// header, another prefix and an empty argument.
Corpus soap_request_corpus() {
  Corpus corpus;
  for (upnp::ActionRequest request :
       {upnp::ActionRequest{"urn:schemas-upnp-org:service:SwitchPower:1", "SetPower",
                            {{"Power", "1"}}},
        upnp::ActionRequest{"urn:x:service:Clock:1", "SetTime",
                            {{"NewTime", "12:00"}, {"Zone", "a<b"}}}}) {
    const std::string header = request.soap_action_header();
    corpus.push_back(bytes_of(header + "\n" + std::move(request).to_envelope()));
  }
  corpus.push_back(
      bytes_of("urn:x:service:Tv:1#Show\n"
               "<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">"
               "<s:Body><m:Show xmlns:m=\"urn:x:service:Tv:1\"><Image/><Name>a.jpg</Name>"
               "</m:Show></s:Body></s:Envelope>"));
  return corpus;
}

/// Faults as UpnpDevice writes them, a bare Fault with no UPnPError, and one
/// whose errorCode does not fit an int.
Corpus soap_fault_corpus() {
  std::string too_big = upnp::SoapFault{401, "Invalid Action"}.to_envelope();
  too_big.replace(too_big.find("401"), 3, "2147483648");
  return {bytes_of(upnp::SoapFault{401, "Invalid Action"}.to_envelope()),
          bytes_of(upnp::SoapFault{501, "device on fire & smoking"}.to_envelope()),
          bytes_of("<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">"
                   "<s:Body><s:Fault><faultcode>s:Server</faultcode></s:Fault></s:Body>"
                   "</s:Envelope>"),
          bytes_of(too_big)};
}

/// XML-RPC requests as `ws_call` writes them: a method with a
/// parameter, one with an empty parameter and a binary one. And one as
/// another client might write it: a declaration, whitespace and no params.
Corpus ws_call_corpus() {
  return {bytes_of(ws::encode_method_call("forecast", to_bytes("Fujisawa"))),
          bytes_of(ws::encode_method_call("ping", {})),
          bytes_of(ws::encode_method_call("put", Bytes{0x00, 0xff, 0x10})),
          bytes_of("<?xml version=\"1.0\"?>\n<methodCall>\n  <methodName>status</methodName>\n"
                   "</methodCall>")};
}

/// XML-RPC replies as WsService writes them: a report, an empty one and a
/// binary one.
Corpus ws_response_corpus() {
  return {bytes_of(ws::encode_method_response(to_bytes("report for Fujisawa: sunny, 23C"))),
          bytes_of(ws::encode_method_response({})),
          bytes_of(ws::encode_method_response(Bytes{0x00, 0xff, 0x10}))};
}

/// Webhook bodies as WsService writes them, and one with a declaration.
Corpus ws_notification_corpus() {
  return {bytes_of(ws::encode_notification(to_bytes("storm warning"))),
          bytes_of(ws::encode_notification(Bytes{1, 2, 3, 4, 5})),
          bytes_of("<?xml version=\"1.0\"?><notification><param>aGk=</param></notification>")};
}

/// One valid stream per protocol of fuzz::stream_protocols(): the selector
/// byte, then two or three frames back to back.
Corpus stream_corpus() {
  namespace obex = bt::obex;
  std::vector<std::vector<Bytes>> streams;
  core::Message msg;
  msg.type = MimeType::of("image/jpeg");
  msg.payload = Bytes(40, 0xD8);
  const core::PortRef dst{TranslatorId(42), "image-in"};
  const core::umtp::Frame disconnect{core::umtp::DisconnectFrame{PathId(9)}};
  streams.push_back({core::umtp::encode_data(dst, msg), core::umtp::encode(disconnect)});
  obex::Packet connect;
  connect.opcode = obex::kOpConnect;
  connect.max_packet = 0xFFFF;
  obex::Packet put;
  put.opcode = obex::kOpPutFinal;
  put.headers.push_back(obex::Header::text(obex::kHdrName, "a.jpg"));
  put.headers.push_back(obex::Header::bytes(obex::kHdrEndOfBody, Bytes(30, 0x7)));
  streams.push_back({connect.encode(), put.encode()});
  streams.push_back({mb::Frame{mb::Op::produce, "cam", "image/jpeg", {}}.encode(),
                     mb::Frame{mb::Op::data, "cam", "", Bytes(30, 0x9)}.encode()});
  streams.push_back({rmi::encode_call({"echo", "deliver", Bytes(20, 0x2A)}),
                     rmi::encode_call({"echo", "ping", {}})});
  streams.push_back({rmi::encode_return({false, bytes_of("ok")}),
                     rmi::encode_return({true, bytes_of("NoSuchMethodException")})});
  streams.push_back({bt::SdpRequest{bt::kSdpSearchRequest, 1, "*"}.encode(),
                     bt::SdpRequest{bt::kSdpSearchRequest, 2, "0x1124"}.encode()});
  bt::SdpResponse found{bt::kSdpSearchResponse, 1, 0, {{1, "0x1124", "HID Mouse", 0x13, "HID"}}};
  streams.push_back({found.encode(), bt::SdpResponse{bt::kSdpError, 2, 3, {}}.encode()});
  streams.push_back({bt::MouseReport{1, -5, 7, 0}.encode(), bt::MouseReport{0, 3, 3, 1}.encode(),
                     bt::MouseReport{}.encode()});
  upnp::HttpRequest post;
  post.method = "POST";
  post.path = "/control";
  post.headers["soapaction"] = "\"urn:x#SetPower\"";
  post.body = "<s:Envelope/>";
  streams.push_back({post.to_wire(), upnp::HttpRequest{}.to_wire()});
  streams.push_back({mb::Frame{mb::Op::consume, "cam", "", {}}.encode(),
                     mb::encode_data("cam", Bytes(30, 0x9)), mb::encode_data("cam", {})});
  Corpus corpus;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    Bytes item{static_cast<std::uint8_t>(i)};
    for (const Bytes& frame : streams[i]) item.insert(item.end(), frame.begin(), frame.end());
    corpus.push_back(std::move(item));
  }
  return corpus;
}

/// Descriptions as UpnpDevice writes them: one service with an action and a
/// state variable, and two services with empty lists. And one as another
/// stack might write it, so that the corpus does not depend on the encoder:
/// a comment, fields out of order, an escaped name and a service with no
/// lists at all.
Corpus upnp_description_corpus() {
  using upnp::DeviceDescription;
  return {bytes_of(DeviceDescription{"urn:x:Lamp:1", "a&b", "uuid:lamp",
                                     {{"urn:x:Power:1", "x:Power", "/c", "/e", {"Set"}, {"On"}}}}
                       .to_xml_text()),
          bytes_of(DeviceDescription{"urn:x:Tv:1", "", "uuid:tv",
                                     {{"urn:x:A:1", "", "", "", {}, {}},
                                      {"urn:x:B:1", "", "", "", {}, {}}}}
                       .to_xml_text()),
          bytes_of("<root><!-- tv --><device><deviceType>urn:x:Tv:1</deviceType>"
                   "<UDN>uuid:tv</UDN><friendlyName>a&lt;b</friendlyName><serviceList>"
                   "<service><serviceType>urn:x:Show:1</serviceType><actionList>"
                   "<action>Show</action></actionList><stateVariableList>"
                   "<stateVariable>Image</stateVariable></stateVariableList></service>"
                   "<service><serviceType>urn:x:Mute:1</serviceType></service>"
                   "</serviceList></device></root>")};
}

/// Each row of fuzz::targets() by name: its corpus and its mutation seed.
struct RowCorpus {
  std::string_view name;
  Corpus (*corpus)();
  std::uint64_t seed;
};

const RowCorpus kCorpora[] = {
    {"xml", xml_corpus, 0x1111aaaa2222bbbbull},
    {"usdl", usdl_corpus, 0x3333cccc4444ddddull},
    {"directory_advert", directory_advert_corpus, 0x0d17ad7e0d17ad7eull},
    {"umtp", umtp_corpus, 0x5555eeee6666ffffull},
    {"base64", base64_corpus, 0x7777b64b64b64b64ull},
    {"motes_reading", motes_corpus, 0xabcd0123456789efull},
    {"uri", uri_corpus, 0x0a11ce5ull},
    {"mime", mime_corpus, 0x313e7e5ull},
    {"query", query_corpus, 0x9e77c0ec7ull},
    {"rmi_binding", rmi_binding_corpus, 0xb1dd1e5ull},
    {"ssdp_datagram", ssdp_corpus, 0x55d9da7a6ull},
    {"gena_property_set", gena_corpus, 0x6e7a9709e77e5ull},
    {"soap_action_response", soap_response_corpus, 0x50a9ac710e5ull},
    {"soap_action_request", soap_request_corpus, 0x50a9e9c357ull},
    {"soap_fault", soap_fault_corpus, 0x50a9fa017ull},
    {"ws_method_call", ws_call_corpus, 0x3e7ca11ull},
    {"ws_method_response", ws_response_corpus, 0x3e7a0d9e5ull},
    {"ws_notification", ws_notification_corpus, 0x3e9071f1ull},
    {"upnp_description", upnp_description_corpus, 0xde5c417ull},
    {"stream", stream_corpus, 0x9999f4a3e5f4a3e5ull},
};

TEST(FuzzSmokeTest, EveryRowHasOneCorpus) {
  std::set<std::string_view> rows, corpora;
  for (const fuzz::Target& t : fuzz::targets()) EXPECT_TRUE(rows.insert(t.name).second) << t.name;
  for (const RowCorpus& c : kCorpora) EXPECT_TRUE(corpora.insert(c.name).second) << c.name;
  EXPECT_EQ(rows, corpora) << "a row has no corpus, or a corpus no row";
  EXPECT_EQ(stream_corpus().size(), fuzz::stream_protocols().size());
}

class FuzzSmokeTest : public ::testing::TestWithParam<fuzz::Target> {};

/// Drive each row with kRounds mutated inputs of its corpus; both outcome
/// classes (decode error and decode success) must occur, proving the fuzz
/// actually explores.
TEST_P(FuzzSmokeTest, SurvivesMutations) {
  const auto& [name, entry] = GetParam();
  const auto* row = std::ranges::find(kCorpora, std::string_view(name), &RowCorpus::name);
  ASSERT_NE(row, std::end(kCorpora)) << "no corpus for row " << name;
  const Corpus corpus = row->corpus();
  for (const Bytes& item : corpus) {  // the valid corpus itself must decode
    ASSERT_LE(item.size(), kMaxInput);
    ASSERT_EQ(entry(item), 1);
  }
  Rng rng(row->seed);
  int ok = 0, err = 0;
  for (int i = 0; i < kRounds; ++i) {
    const Bytes input = mutate(corpus[rng.below(corpus.size())], rng);
    (entry(input) == 1 ? ok : err) += 1;
  }
  EXPECT_GT(ok, 0) << "no mutated input decoded — mutations too destructive";
  EXPECT_GT(err, 0) << "no mutated input failed — mutations too tame";
}

INSTANTIATE_TEST_SUITE_P(Rows, FuzzSmokeTest, ::testing::ValuesIn(fuzz::targets()),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(FuzzSmokeTest, UmtpLengthPrefixLiesAreRejectedNotTrusted) {
  // Length-prefix lies at the *outer* framing layer: a prefix larger than the
  // body must leave the reader waiting (no frame, no crash), and an inner
  // truncation under a correct prefix must poison the reader with an error.
  namespace umtp = core::umtp;
  core::Message msg;
  msg.type = MimeType::of("text/plain");
  msg.payload = bytes_of("hello");
  Bytes wire = umtp::encode_data(core::PortRef{TranslatorId(1), "in"}, msg);

  {  // prefix says "one more byte than exists": must just keep buffering
    Bytes lying = wire;
    lying[3] += 1;
    umtp::Reader reader;
    std::vector<umtp::Frame> out;
    ASSERT_TRUE(reader.feed({lying.data(), lying.size()}, out).ok());
    EXPECT_TRUE(out.empty());
  }
  {  // truncated body under a shrunken-but-honest prefix: decode error
    Bytes truncated(wire.begin(), wire.begin() + 12);
    truncated[0] = truncated[1] = truncated[2] = 0;
    truncated[3] = 8;  // 8 body bytes follow — a torn DATA frame
    umtp::Reader reader;
    std::vector<umtp::Frame> out;
    EXPECT_FALSE(reader.feed({truncated.data(), truncated.size()}, out).ok());
    // Poisoned: further feeds keep failing instead of resyncing mid-garbage.
    EXPECT_FALSE(reader.feed({wire.data(), wire.size()}, out).ok());
    EXPECT_TRUE(out.empty());
  }
}

TEST(FuzzSmokeTest, UmtpSeqAndAckFieldLiesFailDecodeNotState) {
  // Field-level lies in the new delivery-contract frames must be rejected at
  // decode time — before any sequencing/dedup state could be confused by them.
  namespace umtp = core::umtp;
  core::Message msg;
  msg.type = MimeType::of("text/plain");
  msg.payload = bytes_of("hello");
  const Bytes data = umtp::encode_data(core::PortRef{TranslatorId(1), "in"}, msg);

  auto feed_one = [](const Bytes& wire) {
    umtp::Reader reader;
    std::vector<umtp::Frame> out;
    return reader.feed({wire.data(), wire.size()}, out);
  };

  // SEQ may only wrap buffered payload frames (DATA/CONNECT/DISCONNECT/
  // DATA_DL). Wrapping control frames — or another SEQ — is a protocol lie.
  ByteWriter ack;
  ack.u32(17);
  ack.u8(5);  // FrameType::ack
  ack.u64(11);
  ack.u64(4);
  EXPECT_FALSE(feed_one(umtp::encode_seq(1, ack.take())).ok());
  EXPECT_FALSE(feed_one(umtp::encode_seq(2, umtp::encode_seq(1, data))).ok());

  {  // empty inner body: a SEQ that wraps nothing decodes to an error
    ByteWriter w;
    w.u32(9);  // u8 type + u64 seq, no inner frame
    w.u8(7);   // FrameType::seq
    w.u64(3);
    EXPECT_FALSE(feed_one(w.take()).ok());
  }
  {  // truncated inner body under an honest outer prefix: inner decode fails
    Bytes lying = umtp::encode_seq(4, data);
    lying.pop_back();
    const std::uint32_t len = static_cast<std::uint32_t>(lying.size() - 4);
    lying[0] = std::uint8_t(len >> 24);
    lying[1] = std::uint8_t(len >> 16);
    lying[2] = std::uint8_t(len >> 8);
    lying[3] = std::uint8_t(len);
    EXPECT_FALSE(feed_one(lying).ok());
  }
  {  // ACK with trailing junk: fixed-size frames must not tolerate extra bytes
    ByteWriter w;
    w.u32(18);
    w.u8(5);
    w.u64(11);
    w.u64(4);
    w.u8(0xFF);
    EXPECT_FALSE(feed_one(w.take()).ok());
  }
  {  // truncated RESUME: short reads surface as errors, not partial frames
    ByteWriter w;
    w.u32(17);  // RESUME needs 1 + 4*8 = 33 body bytes; give it half
    w.u8(6);    // FrameType::resume
    w.u64(7);
    w.u64(11);
    EXPECT_FALSE(feed_one(w.take()).ok());
  }

  // And the honest versions of each frame do decode — the lies above fail on
  // their fields, not because the decoder rejects the frame types wholesale.
  EXPECT_TRUE(feed_one(umtp::encode_seq(4, data)).ok());
  umtp::ResumeFrame resume;
  resume.node = NodeId(7);
  resume.epoch = 11;
  resume.prev_channel = 11;
  resume.base_seq = 3;
  EXPECT_TRUE(feed_one(umtp::encode(umtp::Frame{resume})).ok());
  ByteWriter honest_ack;
  honest_ack.u32(17);
  honest_ack.u8(5);
  honest_ack.u64(11);
  honest_ack.u64(4);
  EXPECT_TRUE(feed_one(honest_ack.take()).ok());
  EXPECT_TRUE(feed_one(umtp::encode_data(core::PortRef{TranslatorId(1), "in"}, msg,
                                         /*deadline_ns=*/99))
                  .ok());
}

}  // namespace
}  // namespace umiddle
