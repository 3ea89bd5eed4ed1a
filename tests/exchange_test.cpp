// The one-shot client exchange (net::Exchange, DESIGN.md §7.6), through each
// of its five clients — sdp_query, http_fetch, OBEX PUT, OBEX GET and the RMI
// registry client — against
// a peer that replies, replies with garbage, closes early, crashes mid-exchange
// or is not there. Whatever the peer does, `done` runs exactly once with the
// right result, and the client's stream ends closed.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "bluetooth/obex.hpp"
#include "bluetooth/sdp.hpp"
#include "netsim/fault.hpp"
#include "rmi/registry.hpp"
#include "upnp/http.hpp"

namespace umiddle {
namespace {

enum class Client { sdp_query, http_fetch, obex_put, obex_get, rmi_registry };
enum class Peer { replies, malformed, closes_early, crashes, absent };

const char* name(Client c) {
  switch (c) {
    case Client::sdp_query: return "sdp_query";
    case Client::http_fetch: return "http_fetch";
    case Client::obex_put: return "obex_put";
    case Client::obex_get: return "obex_get";
    case Client::rmi_registry: return "rmi_registry";
  }
  return "?";
}

const char* name(Peer p) {
  switch (p) {
    case Peer::replies: return "replies";
    case Peer::malformed: return "malformed";
    case Peer::closes_early: return "closes_early";
    case Peer::crashes: return "crashes";
    case Peer::absent: return "absent";
  }
  return "?";
}

/// The result `done` must see; nullopt is success.
std::optional<Errc> expected(Client client, Peer peer) {
  switch (peer) {
    case Peer::replies: return std::nullopt;
    case Peer::malformed:
      return client == Client::http_fetch ? Errc::parse_error : Errc::protocol_error;
    case Peer::closes_early:
    case Peer::crashes: return Errc::disconnected;
    case Peer::absent: return Errc::refused;
  }
  return Errc::internal;
}

/// A client host on a LAN and on the Bluetooth radio; the peer is a web host
/// on the LAN (HTTP and the RMI registry) or a Bluetooth device.
struct World {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  bt::BluetoothMedium medium{net};
  bt::BtDevice device{medium, "Peer", 0};
  std::vector<bt::SdpRecord> records{{1, "0x1105", "OBEX Object Push", bt::kPsmObexBip, "OPP"}};
  bt::obex::Server obex_server{[](const bt::obex::Object&) {},
                               [](const std::string& type, const std::string&) {
                                 return Result<bt::obex::Object>(
                                     bt::obex::Object{"a.jpg", type, Bytes(70000, 0x11)});
                               }};
  upnp::HttpServer http_server{net, "web", 80};
  rmi::RmiRegistry rmi_registry{net, "web"};

  World() {
    net::SegmentSpec spec;
    spec.latency = sim::microseconds(100);
    const net::SegmentId lan = net.add_segment(spec);
    for (const char* host : {"client", "web"}) {
      EXPECT_TRUE(net.add_host(host).ok());
      EXPECT_TRUE(net.attach(host, lan).ok());
    }
    EXPECT_TRUE(medium.attach_host("client").ok());
    EXPECT_TRUE(device.power_on().ok());
  }

  /// Install the peer's behaviour for `client`'s protocol.
  void serve(Client client, Peer peer) {
    const bool web = client == Client::http_fetch || client == Client::rmi_registry;
    const std::string host = web ? "web" : device.host();
    if (peer == Peer::absent) return;
    if (peer == Peer::replies) {
      switch (client) {
        case Client::sdp_query:
          EXPECT_TRUE(bt::start_sdp_server(device, &records).ok());
          return;
        case Client::http_fetch:
          http_server.route("/", upnp::sync_handler([](const upnp::HttpRequest&) {
                              return upnp::HttpResponse::make(200, "OK", "hello");
                            }));
          EXPECT_TRUE(http_server.start().ok());
          return;
        case Client::rmi_registry:
          EXPECT_TRUE(rmi_registry.start().ok());
          return;
        case Client::obex_put:
        case Client::obex_get:
          EXPECT_TRUE(device
                          .listen_psm(bt::kPsmObexBip,
                                      [this](net::StreamPtr s) { obex_server.attach(s); })
                          .ok());
          return;
      }
    }
    Bytes garbage = client == Client::sdp_query      ? Bytes{0x55, 0x00, 0x01}
                    : client == Client::http_fetch   ? to_bytes("garbage\r\n\r\n")
                    : client == Client::rmi_registry ? to_bytes("JRMX\x51garbage")
                                                     : Bytes{bt::obex::kRespSuccess, 0x00, 0x01};
    // The peer acts once the client's first request has arrived.
    net::AcceptHandler accept = [this, peer, host, garbage](net::StreamPtr s) {
      s->on_data([this, peer, host, garbage, s](std::span<const std::uint8_t>) {
        if (peer == Peer::malformed) (void)s->send(garbage);
        if (peer == Peer::closes_early) s->close();
        if (peer == Peer::crashes) {
          sched.post([this, host = host] { net.faults().crash_host(host); });
        }
      });
    };
    const std::uint16_t psm = client == Client::sdp_query ? bt::kPsmSdp : bt::kPsmObexBip;
    const std::uint16_t port = client == Client::rmi_registry ? rmi::kRegistryPort : 80;
    EXPECT_TRUE((web ? net.listen({"web", port}, accept) : device.listen_psm(psm, accept)).ok());
  }

  /// Start `client`'s exchange; `done` sees each result.
  template <typename Done>
  void run(Client client, Done done) {
    switch (client) {
      case Client::sdp_query:
        bt::sdp_query(medium, "client", device.address(), "*", done);
        return;
      case Client::http_fetch:
        upnp::http_fetch(net, "client", Uri::parse("http://web:80/").value(), {}, done);
        return;
      case Client::obex_put:
        bt::obex::Client::put(medium.l2cap_connect("client", device.address(), bt::kPsmObexBip),
                              bt::obex::Object{"b.jpg", "image/jpeg", Bytes(70000, 0x22)}, done);
        return;
      case Client::obex_get:
        bt::obex::Client::get(medium.l2cap_connect("client", device.address(), bt::kPsmObexBip),
                              "image/jpeg", "", done);
        return;
      case Client::rmi_registry:
        rmi::RegistryClient(net, "client", rmi_registry.endpoint()).list(done);
        return;
    }
  }

  /// Streams still open at `host`, counted the one way netsim exposes them:
  /// crashing the host resets exactly those.
  std::uint64_t open_streams_on(const std::string& host) {
    const std::uint64_t before = net.faults().streams_reset();
    net.faults().crash_host(host);
    return net.faults().streams_reset() - before;
  }
};

class ExchangeTest : public ::testing::TestWithParam<std::tuple<Client, Peer>> {};

TEST_P(ExchangeTest, ResolvesOnceAndClosesTheStream) {
  const auto [client, peer] = GetParam();
  World w;
  w.serve(client, peer);
  int calls = 0;
  std::optional<Errc> got;
  w.run(client, [&](const auto& result) {
    ++calls;
    got = result.ok() ? std::nullopt : std::optional<Errc>(result.error().code);
  });
  w.sched.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got, expected(client, peer));
  EXPECT_EQ(w.open_streams_on("client"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllClients, ExchangeTest,
    ::testing::Combine(::testing::Values(Client::sdp_query, Client::http_fetch, Client::obex_put,
                                         Client::obex_get, Client::rmi_registry),
                       ::testing::Values(Peer::replies, Peer::malformed, Peer::closes_early,
                                         Peer::crashes, Peer::absent)),
    [](const ::testing::TestParamInfo<std::tuple<Client, Peer>>& info) {
      return std::string(name(std::get<0>(info.param))) + "_" + name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace umiddle
