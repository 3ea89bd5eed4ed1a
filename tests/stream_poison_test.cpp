// Every long-lived stream endpoint against malformed bytes (DESIGN.md §7.6):
// UMTP's accepted side and its link's ACK side, the MediaBroker server and
// client, the RMI object server and an RMI client with a call in flight, the
// OBEX server and the HTTP server. The peer sends one well-formed frame and
// malformed bytes after it, in one chunk. The endpoint closes the connection
// and hands on no frame, not even the well-formed one. HTTP answers 400
// first, and the RMI call resolves exactly once, with protocol_error. The
// well-formed frame sent alone is handled, so each count does see a frame.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "bluetooth/obex.hpp"
#include "common/strings.hpp"
#include "core/umiddle.hpp"
#include "mediabroker/client.hpp"
#include "mediabroker/server.hpp"
#include "rmi/protocol.hpp"
#include "upnp/http.hpp"

namespace umiddle {
namespace {

using sim::seconds;

enum class Endpoint {
  umtp_accepted,
  umtp_link_ack,
  mb_server,
  mb_client,
  rmi_server,
  rmi_client,
  obex_server,
  http_server,
};

const char* name(Endpoint e) {
  switch (e) {
    case Endpoint::umtp_accepted: return "umtp_accepted";
    case Endpoint::umtp_link_ack: return "umtp_link_ack";
    case Endpoint::mb_server: return "mb_server";
    case Endpoint::mb_client: return "mb_client";
    case Endpoint::rmi_server: return "rmi_server";
    case Endpoint::rmi_client: return "rmi_client";
    case Endpoint::obex_server: return "obex_server";
    case Endpoint::http_server: return "http_server";
  }
  return "?";
}

void PrintTo(Endpoint e, std::ostream* os) { *os << name(e); }

/// Bytes each endpoint's reader rejects (the framing_test forms; HTTP's is a
/// content-length that is not a number).
Bytes malformed(Endpoint e) {
  switch (e) {
    case Endpoint::umtp_accepted:
    case Endpoint::umtp_link_ack: return Bytes(8, 0xFF);  // a length past kMaxFrame
    case Endpoint::mb_server:
    case Endpoint::mb_client: return Bytes{99, 0, 0};
    case Endpoint::rmi_server: return to_bytes("XXXX\x50");
    case Endpoint::rmi_client: return to_bytes("JRMI\x50");
    case Endpoint::obex_server: return Bytes{bt::obex::kOpPut, 0x00, 0x01};
    case Endpoint::http_server:
      return to_bytes("POST /c HTTP/1.1\r\ncontent-length: 12x\r\n\r\nhello");
  }
  return {};
}

constexpr std::uint16_t kPort = 4000;

/// Hosts "a" and "b" on one LAN, with the endpoint under test at one end of
/// a connection and `peer`, the stream the test writes to, at the other.
struct World {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  std::unique_ptr<core::Runtime> ra;
  std::unique_ptr<core::Runtime> rb;
  std::unique_ptr<mb::MbServer> mb_server;
  std::unique_ptr<mb::MbClient> mb_client;
  std::unique_ptr<rmi::RmiObjectServer> rmi_server;
  std::unique_ptr<rmi::RmiConnection> rmi_client;
  std::unique_ptr<bt::obex::Server> obex_server;
  std::unique_ptr<upnp::HttpServer> http_server;

  Endpoint endpoint;
  net::StreamPtr peer;
  bool peer_closed = false;
  std::string reply;  ///< the bytes the peer received
  Bytes valid;        ///< one well-formed frame for the endpoint
  std::size_t handled_frames = 0;
  /// Each result of the RMI client's call; nullopt is success.
  std::vector<std::optional<Errc>> rmi_results;

  explicit World(Endpoint e) : endpoint(e) {
    net::SegmentSpec spec;
    spec.latency = sim::milliseconds(1);
    const net::SegmentId lan = net.add_segment(spec);
    for (const char* host : {"a", "b"}) {
      EXPECT_TRUE(net.add_host(host).ok());
      EXPECT_TRUE(net.attach(host, lan).ok());
    }
    setup();
    sched.run_for(seconds(1));
  }

  std::uint64_t counter(std::string_view name) {
    auto snap = net.metrics().snapshot();
    const obs::SnapshotEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->count;
  }

  /// Frames the endpoint handed on since setup.
  std::uint64_t handled() {
    switch (endpoint) {
      case Endpoint::umtp_accepted: return counter("umtp.data_frames_rx");
      case Endpoint::umtp_link_ack: return counter("delivery.acked_retired");
      case Endpoint::mb_server: return mb_server->stream_count();
      case Endpoint::mb_client: return mb_client->frames_received();
      case Endpoint::rmi_server: return rmi_server->calls_served();
      case Endpoint::rmi_client:
      case Endpoint::obex_server:
      case Endpoint::http_server: return handled_frames;
    }
    return 0;
  }

  void watch(net::StreamPtr s) {
    peer = std::move(s);
    peer->on_data([this](std::span<const std::uint8_t> chunk) {
      reply.append(reinterpret_cast<const char*>(chunk.data()), chunk.size());
    });
    peer->on_close([this]() { peer_closed = true; });
  }

  void connect_peer(net::Endpoint to) {
    auto s = net.connect("a", std::move(to));
    ASSERT_TRUE(s.ok());
    watch(s.value());
  }

  /// A raw listener on b stands in for the endpoint's server.
  void accept_peer(std::uint16_t port) {
    ASSERT_TRUE(net.listen({"b", port}, [this](net::StreamPtr s) { watch(std::move(s)); }).ok());
  }

  void setup() {
    switch (endpoint) {
      case Endpoint::umtp_accepted: {
        rb = std::make_unique<core::Runtime>(sched, net, "b");
        ASSERT_TRUE(rb->start().ok());
        auto sink = std::make_unique<core::CollectorDevice>(
            "Sink", core::make_sink_shape("in", MimeType("image", "jpeg")));
        const TranslatorId sink_id = rb->map(std::move(sink)).take();
        core::Message m;
        m.type = MimeType("image", "jpeg");
        m.payload = Bytes(100, 0x11);
        valid = core::umtp::encode_data(core::PortRef{sink_id, "in"}, m);
        connect_peer({"b", core::RuntimeConfig{}.umtp_port});
        return;
      }
      case Endpoint::umtp_link_ack: {
        // b's directory advertises its UMTP port, but a raw listener serves
        // it in place of b's transport.
        ra = std::make_unique<core::Runtime>(sched, net, "a");
        rb = std::make_unique<core::Runtime>(sched, net, "b");
        ASSERT_TRUE(ra->start().ok());
        ASSERT_TRUE(rb->start().ok());
        auto src = std::make_unique<core::LambdaDevice>(
            "Source", core::make_source_shape("out", MimeType("image", "jpeg")));
        core::LambdaDevice* source = src.get();
        const TranslatorId src_id = ra->map(std::move(src)).take();
        auto sink = std::make_unique<core::CollectorDevice>(
            "Sink", core::make_sink_shape("in", MimeType("image", "jpeg")));
        const TranslatorId sink_id = rb->map(std::move(sink)).take();
        sched.run_for(seconds(3));
        rb->transport().stop();
        accept_peer(core::RuntimeConfig{}.umtp_port);
        ASSERT_TRUE(
            ra->transport().connect(core::PortRef{src_id, "out"}, core::PortRef{sink_id, "in"})
                .ok());
        // The first message opens the link.
        core::Message m;
        m.type = MimeType("image", "jpeg");
        m.payload = Bytes(100, 0x11);
        ASSERT_TRUE(source->emit("out", std::move(m)).ok());
        sched.run_for(seconds(1));
        ASSERT_NE(peer, nullptr);
        // The link's epoch is its stream's id; count 1 retires its first frame.
        valid = core::umtp::encode(core::umtp::Frame{core::umtp::AckFrame{peer->peer().value(), 1}});
        return;
      }
      case Endpoint::mb_server:
        mb_server = std::make_unique<mb::MbServer>(net, "b", kPort);
        ASSERT_TRUE(mb_server->start().ok());
        {
          mb::Frame f;
          f.op = mb::Op::produce;
          f.stream = "s";
          f.media_type = "image/jpeg";
          valid = f.encode();
        }
        connect_peer({"b", kPort});
        return;
      case Endpoint::mb_client:
        accept_peer(kPort);
        mb_client = std::make_unique<mb::MbClient>(net, "a", net::Endpoint{"b", kPort});
        ASSERT_TRUE(mb_client->connect().ok());
        valid = mb::encode_data("s", Bytes(10, 0x22));
        return;
      case Endpoint::rmi_server:
        rmi_server = std::make_unique<rmi::RmiObjectServer>(net, "b", kPort);
        rmi_server->export_method(
            "o", "m", [](const Bytes&, const std::string&) { return Result<Bytes>(Bytes{}); });
        ASSERT_TRUE(rmi_server->start().ok());
        valid = rmi::encode_call(rmi::Call{"o", "m", {}});
        connect_peer({"b", kPort});
        return;
      case Endpoint::rmi_client: {
        accept_peer(kPort);
        auto s = net.connect("a", {"b", kPort});
        ASSERT_TRUE(s.ok());
        rmi_client = std::make_unique<rmi::RmiConnection>(s.value());
        rmi_client->call(rmi::Call{"o", "m", {}}, [this](Result<rmi::Return> r) {
          rmi_results.push_back(r.ok() ? std::nullopt : std::optional<Errc>(r.error().code));
          if (r.ok()) ++handled_frames;
        });
        valid = rmi::encode_return(rmi::Return{false, {}});
        return;
      }
      case Endpoint::obex_server: {
        obex_server = std::make_unique<bt::obex::Server>(
            [this](bt::obex::Object) { ++handled_frames; }, nullptr);
        ASSERT_TRUE(
            net.listen({"b", kPort}, [this](net::StreamPtr s) { obex_server->attach(s); }).ok());
        bt::obex::Packet p;
        p.opcode = bt::obex::kOpPutFinal;
        p.headers.push_back(bt::obex::Header::text(bt::obex::kHdrName, "a.jpg"));
        p.headers.push_back(bt::obex::Header::bytes(bt::obex::kHdrEndOfBody, Bytes(10, 0x33)));
        valid = p.encode();
        connect_peer({"b", kPort});
        return;
      }
      case Endpoint::http_server:
        http_server = std::make_unique<upnp::HttpServer>(net, "b", kPort);
        http_server->route("/c", upnp::sync_handler([this](const upnp::HttpRequest&) {
                             ++handled_frames;
                             return upnp::HttpResponse::make(200, "OK");
                           }));
        ASSERT_TRUE(http_server->start().ok());
        {
          upnp::HttpRequest req;
          req.method = "POST";
          req.path = "/c";
          req.body = "hello";
          valid = req.to_wire();
        }
        connect_peer({"b", kPort});
        return;
    }
  }
};

class StreamPoisonTest : public ::testing::TestWithParam<Endpoint> {};

TEST_P(StreamPoisonTest, MalformedBytesClose) {
  World w(GetParam());
  ASSERT_NE(w.peer, nullptr);
  ASSERT_EQ(w.handled(), 0u);
  Bytes bytes = w.valid;
  const Bytes bad = malformed(GetParam());
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  ASSERT_TRUE(w.peer->send(std::move(bytes)).ok());
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.handled(), 0u);
  EXPECT_TRUE(w.peer_closed);
  EXPECT_FALSE(w.peer->was_reset());
  if (GetParam() == Endpoint::http_server) {
    EXPECT_TRUE(strings::starts_with(w.reply, "HTTP/1.1 400 Bad Request\r\n")) << w.reply;
  }
  if (GetParam() == Endpoint::rmi_client) {
    EXPECT_EQ(w.rmi_results, std::vector<std::optional<Errc>>{Errc::protocol_error});
  }
}

TEST_P(StreamPoisonTest, WellFormedFrameIsHandled) {
  World w(GetParam());
  ASSERT_NE(w.peer, nullptr);
  ASSERT_TRUE(w.peer->send(w.valid).ok());
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.handled(), 1u);
  // HTTP answers one request and closes; every other endpoint stays open.
  EXPECT_EQ(w.peer_closed, GetParam() == Endpoint::http_server);
  if (GetParam() == Endpoint::http_server) {
    EXPECT_TRUE(strings::starts_with(w.reply, "HTTP/1.1 200 OK\r\n")) << w.reply;
  }
  if (GetParam() == Endpoint::rmi_client) {
    EXPECT_EQ(w.rmi_results, std::vector<std::optional<Errc>>{std::nullopt});
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEndpoints, StreamPoisonTest,
    ::testing::Values(Endpoint::umtp_accepted, Endpoint::umtp_link_ack, Endpoint::mb_server,
                      Endpoint::mb_client, Endpoint::rmi_server, Endpoint::rmi_client,
                      Endpoint::obex_server, Endpoint::http_server),
    [](const ::testing::TestParamInfo<Endpoint>& info) { return std::string(name(info.param)); });

}  // namespace
}  // namespace umiddle
