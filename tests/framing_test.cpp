// Netsim-free properties of the one stream framing layer (DESIGN.md §7.6).
// Every protocol's FrameReader — UMTP, OBEX, MediaBroker (a client's and the
// broker's), RMI calls and returns, SDP requests and responses, HIDP, HTTP
// requests — is driven through the type-erased table in src/fuzz, which hands
// each frame back re-encoded:
//   * random frames fed at random splits (1-byte splits included) give the
//     same frames as one feed, and as each frame fed alone;
//   * a strict prefix of a frame gives no frame and no error;
//   * one malformed frame poisons the reader for good.
// Plus the size bound all readers share.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "bluetooth/hidp.hpp"
#include "bluetooth/obex.hpp"
#include "common/rand.hpp"
#include "core/umtp.hpp"
#include "fuzz/entries.hpp"
#include "mediabroker/protocol.hpp"
#include "rmi/protocol.hpp"
#include "upnp/http.hpp"

namespace umiddle {
namespace {

namespace obex = bt::obex;

Bytes random_bytes(Rng& rng, std::size_t max) {
  Bytes out(rng.below(max + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

Bytes random_umtp(Rng& rng) {
  if (rng.chance(0.2)) {
    return core::umtp::encode(core::umtp::Frame{core::umtp::DisconnectFrame{PathId(rng.next())}});
  }
  core::Message msg;
  msg.type = MimeType(rng.ident(5), rng.ident(7));
  msg.payload = random_bytes(rng, 300);
  for (std::size_t i = rng.below(3); i > 0; --i) msg.meta[rng.ident(4)] = rng.ident(8);
  const auto deadline = static_cast<std::int64_t>(rng.chance(0.3) ? rng.between(1, 1u << 30) : 0);
  return core::umtp::encode_data(core::PortRef{TranslatorId(rng.between(1, 1u << 20)),
                                               rng.ident(6)},
                                 msg, deadline);
}

Bytes random_obex(Rng& rng) {
  obex::Packet p;
  if (rng.chance(0.2)) {
    p.opcode = obex::kOpConnect;
    p.max_packet = static_cast<std::uint16_t>(rng.next());
    return p.encode();
  }
  const std::uint8_t opcodes[] = {obex::kOpPut, obex::kOpPutFinal, obex::kOpGetFinal,
                                  obex::kRespContinue, obex::kRespSuccess};
  p.opcode = opcodes[rng.below(std::size(opcodes))];
  if (rng.chance(0.5)) p.headers.push_back(obex::Header::text(obex::kHdrName, rng.ident(10)));
  p.headers.push_back(obex::Header::bytes(obex::kHdrBody, random_bytes(rng, 300)));
  if (rng.chance(0.5)) {
    p.headers.push_back(
        obex::Header::u32(obex::kHdrConnectionId, static_cast<std::uint32_t>(rng.next())));
  }
  return p.encode();
}

Bytes random_mb(Rng& rng) {
  mb::Frame f;
  f.op = static_cast<mb::Op>(rng.between(1, 6));
  f.stream = rng.ident(8);
  f.media_type = rng.ident(6);
  f.payload = random_bytes(rng, 300);
  return f.encode();
}

Bytes random_rmi_call(Rng& rng) {
  return rmi::encode_call(rmi::Call{rng.ident(6), rng.ident(6), random_bytes(rng, 200)});
}

Bytes random_rmi_return(Rng& rng) {
  return rmi::encode_return(rmi::Return{rng.chance(0.3), random_bytes(rng, 200)});
}

Bytes random_sdp_request(Rng& rng) {
  const auto pdu = static_cast<std::uint8_t>(rng.chance(0.8) ? bt::kSdpSearchRequest : rng.next());
  return bt::SdpRequest{pdu, static_cast<std::uint16_t>(rng.next()), rng.ident(6)}.encode();
}

Bytes random_sdp_response(Rng& rng) {
  bt::SdpResponse resp;
  resp.tx = static_cast<std::uint16_t>(rng.next());
  if (rng.chance(0.2)) {
    resp.pdu = bt::kSdpError;
    resp.error = static_cast<std::uint16_t>(rng.next());
    return resp.encode();
  }
  for (std::size_t i = rng.below(4); i > 0; --i) {
    resp.records.push_back(bt::SdpRecord{static_cast<std::uint32_t>(rng.next()), rng.ident(6),
                                         rng.ident(10), static_cast<std::uint16_t>(rng.next()),
                                         rng.ident(3)});
  }
  return resp.encode();
}

Bytes random_hid(Rng& rng) {
  Bytes report = bt::MouseReport{static_cast<std::uint8_t>(rng.next()),
                                 static_cast<std::int8_t>(rng.next()),
                                 static_cast<std::int8_t>(rng.next()),
                                 static_cast<std::int8_t>(rng.next())}
                     .encode();
  if (rng.chance(0.2)) report[0] = 0x00;  // a bad transaction: skipped, not fatal
  return report;
}

Bytes random_http(Rng& rng) {
  upnp::HttpRequest req;
  req.method = rng.chance(0.5) ? "GET" : "POST";
  req.path = "/" + rng.ident(8);
  for (std::size_t i = rng.below(4); i > 0; --i) req.headers[rng.ident(6)] = rng.ident(10);
  const Bytes body = random_bytes(rng, 300);
  req.body.assign(body.begin(), body.end());
  return req.to_wire();
}

/// One reader instance: its frame generator and, where the protocol has
/// one, a malformed frame.
struct Instance {
  std::string protocol;
  Bytes (*random_frame)(Rng&);
  std::optional<Bytes> malformed;
};

std::ostream& operator<<(std::ostream& os, const Instance& instance) {
  return os << instance.protocol;
}

fuzz::FrameFeed make_reader(const std::string& protocol) {
  for (const fuzz::StreamProtocol& p : fuzz::stream_protocols()) {
    if (p.name == protocol) return p.make_reader();
  }
  ADD_FAILURE() << "no stream protocol " << protocol;
  return nullptr;
}

class FrameReaderTest : public ::testing::TestWithParam<Instance> {};

TEST_P(FrameReaderTest, RandomSplitsMatchOneFeed) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Bytes stream;
    std::vector<Bytes> expected;  // each frame fed alone to a fresh reader
    for (std::size_t i = rng.between(1, 8); i > 0; --i) {
      const Bytes frame = GetParam().random_frame(rng);
      stream.insert(stream.end(), frame.begin(), frame.end());
      ASSERT_TRUE(make_reader(GetParam().protocol)(frame, expected).ok());
    }
    std::vector<Bytes> whole;
    ASSERT_TRUE(make_reader(GetParam().protocol)(stream, whole).ok());
    EXPECT_EQ(whole, expected) << "seed " << seed;

    // Every fourth seed splits into single bytes; the rest at random.
    fuzz::FrameFeed reader = make_reader(GetParam().protocol);
    std::vector<Bytes> split;
    for (std::size_t off = 0; off < stream.size();) {
      const std::size_t n = seed % 4 == 0 ? 1 : std::min<std::size_t>(rng.between(1, 97),
                                                                      stream.size() - off);
      ASSERT_TRUE(reader(std::span(stream).subspan(off, n), split).ok()) << "seed " << seed;
      off += n;
    }
    EXPECT_EQ(split, expected) << "seed " << seed;
  }
}

TEST_P(FrameReaderTest, StrictPrefixYieldsNothing) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Bytes frame = GetParam().random_frame(rng);
    fuzz::FrameFeed reader = make_reader(GetParam().protocol);
    std::vector<Bytes> out;
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
      ASSERT_TRUE(reader(std::span(frame).subspan(i, 1), out).ok()) << "prefix " << i + 1;
      ASSERT_TRUE(out.empty()) << "prefix " << i + 1 << " of " << frame.size();
    }
    ASSERT_TRUE(reader(std::span(frame).last(1), out).ok());
    std::vector<Bytes> whole;  // one frame, or none for a skipped HIDP report
    ASSERT_TRUE(make_reader(GetParam().protocol)(frame, whole).ok());
    EXPECT_EQ(out, whole);
  }
}

TEST_P(FrameReaderTest, MalformedFramePoisons) {
  Rng rng(7);
  const Bytes good = GetParam().random_frame(rng);
  fuzz::FrameFeed reader = make_reader(GetParam().protocol);
  std::vector<Bytes> out;
  ASSERT_TRUE(reader(good, out).ok());
  if (!GetParam().malformed) {
    // No malformed form: HIDP skips a bad report and the SDP server answers
    // any PDU, so no bytes at all poison these readers.
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(reader(random_bytes(rng, 64), out).ok());
    return;
  }
  Bytes bad = *GetParam().malformed;
  bad.insert(bad.end(), good.begin(), good.end());
  const Result<void> first = reader(bad, out);
  ASSERT_FALSE(first.ok());
  const std::size_t frames = out.size();
  for (int i = 0; i < 3; ++i) {
    const Result<void> again = reader(good, out);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error().to_string(), first.error().to_string());
  }
  EXPECT_EQ(out.size(), frames);
}

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

INSTANTIATE_TEST_SUITE_P(
    AllStreams, FrameReaderTest,
    ::testing::Values(
        Instance{"umtp", &random_umtp, Bytes{0, 0, 0, 3, 99, 0, 0}},
        Instance{"obex", &random_obex, Bytes{obex::kOpPut, 0x00, 0x01}},
        Instance{"mb", &random_mb, Bytes{99, 0, 0}},
        Instance{"rmi_call", &random_rmi_call, bytes_of("XXXX\x50")},
        Instance{"rmi_return", &random_rmi_return, bytes_of("JRMI\x50")},
        Instance{"sdp_request", &random_sdp_request, std::nullopt},
        Instance{"sdp_response", &random_sdp_response, Bytes{0x55, 0x00, 0x01}},
        Instance{"hid", &random_hid, std::nullopt},
        Instance{"http", &random_http, bytes_of("BAD\r\n\r\n")},
        Instance{"mb_wire", &random_mb, Bytes{99, 0, 0}}),
    [](const ::testing::TestParamInfo<Instance>& info) { return info.param.protocol; });

// UMTP, OBEX and HTTP steps report an incomplete frame's full length once
// its header is in, and the reader reserves it, decoding whole frames straight
// from the chunk while nothing is buffered. Fed in every chunk size from one
// byte to the whole stream, each still gives the frames of one feed.
class LengthReportingReaderTest : public ::testing::TestWithParam<Instance> {};

TEST_P(LengthReportingReaderTest, EveryChunkSizeGivesTheSameFrames) {
  Rng rng(11);
  Bytes stream;
  std::vector<Bytes> expected;
  for (int i = 0; i < 3; ++i) {
    const Bytes frame = GetParam().random_frame(rng);
    stream.insert(stream.end(), frame.begin(), frame.end());
    ASSERT_TRUE(make_reader(GetParam().protocol)(frame, expected).ok());
  }
  ASSERT_EQ(expected.size(), 3u);
  for (std::size_t size = 1; size <= stream.size(); ++size) {
    fuzz::FrameFeed reader = make_reader(GetParam().protocol);
    std::vector<Bytes> got;
    for (std::size_t off = 0; off < stream.size(); off += size) {
      const std::size_t n = std::min(size, stream.size() - off);
      ASSERT_TRUE(reader(std::span(stream).subspan(off, n), got).ok()) << "chunk " << size;
    }
    EXPECT_EQ(got, expected) << "chunk " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthReportingStreams, LengthReportingReaderTest,
    ::testing::Values(Instance{"umtp", &random_umtp, std::nullopt},
                      Instance{"obex", &random_obex, std::nullopt},
                      Instance{"http", &random_http, std::nullopt}),
    [](const ::testing::TestParamInfo<Instance>& info) { return info.param.protocol; });

/// Feed `header` a byte at a time: the reader must fail as soon as the header
/// announces more than kMaxFrame, before any body arrives, and stay failed.
/// (OBEX's u16 packet length cannot announce that much.)
void expect_poisoned_by_header(const std::string& protocol, const Bytes& header) {
  fuzz::FrameFeed reader = make_reader(protocol);
  std::vector<Bytes> out;
  for (std::size_t i = 0; i + 1 < header.size(); ++i) {
    ASSERT_TRUE(reader(std::span(header).subspan(i, 1), out).ok()) << "byte " << i;
  }
  EXPECT_FALSE(reader(std::span(header).last(1), out).ok());
  EXPECT_FALSE(reader(Bytes{0}, out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FrameReaderBoundTest, UmtpLengthAboveMaxFramePoisonsAtTheHeader) {
  // The u32 length counts the body after it, so kMaxFrame - 3 is one too many.
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(kMaxFrame - 3));
  expect_poisoned_by_header("umtp", w.take());
}

TEST(FrameReaderBoundTest, HttpContentLengthAboveMaxFramePoisonsAtTheHead) {
  expect_poisoned_by_header(
      "http", bytes_of("POST /x HTTP/1.1\r\ncontent-length: " + std::to_string(kMaxFrame) +
                       "\r\n\r\n"));
}

// A header announcing 0xFFFFFFF0 bytes, then kMaxFrame + 1 bytes: the frame
// outgrows the shared bound, so the reader fails and stays failed instead of
// buffering without limit.
template <typename Reader>
void expect_bounded(const Bytes& header) {
  Reader reader;
  std::vector<typename Reader::Frame> out;
  ASSERT_TRUE(reader.feed(header, out).ok());
  const Bytes filler(1 << 20, 0x5A);
  Result<void> last = ok_result();
  for (std::size_t fed = 0; fed < kMaxFrame + 1;) {
    const std::size_t n = std::min(filler.size(), kMaxFrame + 1 - fed);
    last = reader.feed(std::span(filler).first(n), out);
    fed += n;
  }
  ASSERT_FALSE(last.ok());
  EXPECT_FALSE(reader.feed(header, out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FrameReaderBoundTest, OversizedMbDataFramePoisons) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(mb::Op::data));
  w.str16("cam-1");
  w.u32(0xFFFFFFF0);
  const Bytes header = w.take();
  expect_bounded<mb::Reader>(header);
  expect_bounded<mb::WireReader>(header);
}

TEST(FrameReaderBoundTest, OversizedRmiReturnPoisons) {
  ByteWriter w;
  w.str("JRMI");
  w.u8(0x51);  // return
  w.u32(0xFFFFFFF0);
  expect_bounded<rmi::ReturnReader>(w.take());
}

}  // namespace
}  // namespace umiddle
