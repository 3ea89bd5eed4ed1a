// The HTTP message head that UPnP speaks twice (DESIGN.md §7.9): over streams
// for SOAP and GENA, and over UDP as SSDP (UPnP DA 1.0 §1). These rows pin
// the head's rules on each transport: a header line with no colon is
// rejected, names fold case, the last repeat wins, and an SSDP datagram's
// head ends at its blank line. They also pin the exact bytes SsdpAgent sends
// and bound the reply delay an M-SEARCH's MX can ask for.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "netsim/network.hpp"
#include "upnp/http.hpp"
#include "upnp/ssdp.hpp"

namespace umiddle::upnp {
namespace {

struct Lan {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId segment = net.add_segment({});

  void add_host(const std::string& name) {
    ASSERT_TRUE(net.add_host(name).ok());
    ASSERT_TRUE(net.attach(name, segment).ok());
  }
};

// Every SSDP datagram, byte for byte: NOTIFY alive, M-SEARCH, the search
// response and NOTIFY byebye. A sniffer joined to the group hears the
// multicasts, and it sends an M-SEARCH of its own from a second socket to
// hear the unicast response.
TEST(SsdpTest, DatagramBytesArePinned) {
  Lan lan;
  lan.add_host("device");
  lan.add_host("cp");
  lan.add_host("sniffer");
  std::vector<std::string> heard;
  std::vector<std::string> answers;
  ASSERT_TRUE(lan.net
                  .udp_bind({"sniffer", kSsdpPort},
                            [&](net::UdpSocket, const Bytes& p) {
                              heard.push_back(umiddle::to_string(p));
                            })
                  .ok());
  ASSERT_TRUE(lan.net.join_group("sniffer", kSsdpGroup).ok());
  auto asker = lan.net.udp_bind({"sniffer", 5000}, [&](net::UdpSocket, const Bytes& p) {
    answers.push_back(umiddle::to_string(p));
  });
  ASSERT_TRUE(asker.ok());

  SsdpAgent device(lan.net, "device");
  SsdpAgent cp(lan.net, "cp");
  ASSERT_TRUE(device.start().ok());
  ASSERT_TRUE(cp.start().ok());
  const std::string type = "urn:schemas-upnp-org:device:BinaryLight:1";
  const std::string usn = "uuid:lamp-1::" + type;
  device.advertise({type, usn, "http://device:80/description.xml", true});
  lan.sched.run();
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0],
            "NOTIFY * HTTP/1.1\r\n"
            "HOST: 239.255.255.250:1900\r\n"
            "NT: urn:schemas-upnp-org:device:BinaryLight:1\r\n"
            "NTS: ssdp:alive\r\n"
            "USN: uuid:lamp-1::urn:schemas-upnp-org:device:BinaryLight:1\r\n"
            "LOCATION: http://device:80/description.xml\r\n"
            "CACHE-CONTROL: max-age=1800\r\n"
            "\r\n");

  ASSERT_TRUE(cp.search(type).ok());
  lan.sched.run();
  ASSERT_EQ(heard.size(), 2u);
  const std::string msearch =
      "M-SEARCH * HTTP/1.1\r\n"
      "HOST: 239.255.255.250:1900\r\n"
      "MAN: \"ssdp:discover\"\r\n"
      "MX: 2\r\n"
      "ST: urn:schemas-upnp-org:device:BinaryLight:1\r\n"
      "\r\n";
  EXPECT_EQ(heard[1], msearch);

  ASSERT_TRUE(lan.net.udp_multicast(asker.value(), lan.net.group(kSsdpGroup), kSsdpPort,
                                    make_payload(to_bytes(msearch)))
                  .ok());
  lan.sched.run();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0],
            "HTTP/1.1 200 OK\r\n"
            "ST: urn:schemas-upnp-org:device:BinaryLight:1\r\n"
            "USN: uuid:lamp-1::urn:schemas-upnp-org:device:BinaryLight:1\r\n"
            "LOCATION: http://device:80/description.xml\r\n"
            "CACHE-CONTROL: max-age=1800\r\n"
            "\r\n");

  device.withdraw(usn);
  lan.sched.run();
  ASSERT_EQ(heard.size(), 4u);  // the sniffer's own M-SEARCH, then the byebye
  EXPECT_EQ(heard[3],
            "NOTIFY * HTTP/1.1\r\n"
            "HOST: 239.255.255.250:1900\r\n"
            "NT: urn:schemas-upnp-org:device:BinaryLight:1\r\n"
            "NTS: ssdp:byebye\r\n"
            "USN: uuid:lamp-1::urn:schemas-upnp-org:device:BinaryLight:1\r\n"
            "\r\n");
}

// --- the colon rule: the same colon-less line on every transport -----------------

constexpr std::string_view kColonless = "no colon here";

template <typename Reader>
Result<void> feed_text(Reader& reader, const std::string& text) {
  std::vector<typename Reader::Frame> out;
  auto r = reader.feed(to_bytes(text), out);
  EXPECT_TRUE(out.empty());
  return r;
}

TEST(HeadColonRuleTest, HttpRequestReaderRejects) {
  HttpRequestReader reader;
  const auto r = feed_text(reader, "GET / HTTP/1.1\r\nhost: tv\r\n" + std::string(kColonless) +
                                       "\r\n\r\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::parse_error);
}

// The line is rejected as soon as the head is in, before the body the
// content-length announces arrives.
TEST(HeadColonRuleTest, HttpResponseReaderRejectsBeforeTheBody) {
  HttpResponseReader reader;
  const auto r = feed_text(reader, "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n" +
                                       std::string(kColonless) + "\r\n\r\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::parse_error);
  HttpResponseReader complete;
  EXPECT_FALSE(feed_text(complete, "HTTP/1.1 200 OK\r\n" + std::string(kColonless) +
                                       "\r\ncontent-length: 5\r\n\r\nhello")
                   .ok());
}

// A NOTIFY with the line is dropped; the same NOTIFY without it is announced.
TEST(HeadColonRuleTest, SsdpDatagramIsDropped) {
  Lan lan;
  lan.add_host("cp");
  lan.add_host("sender");
  SsdpAgent cp(lan.net, "cp");
  std::vector<SsdpAnnouncement> seen;
  cp.on_announcement([&](const SsdpAnnouncement& a) { seen.push_back(a); });
  ASSERT_TRUE(cp.start().ok());
  auto sender = lan.net.udp_bind({"sender", 5000}, [](net::UdpSocket, const Bytes&) {});
  ASSERT_TRUE(sender.ok());
  const auto notify = [&](std::string_view extra) {
    const std::string text = "NOTIFY * HTTP/1.1\r\nNT: urn:x:Light:1\r\nNTS: ssdp:alive\r\n" +
                             std::string(extra) + "USN: uuid:1::urn:x:Light:1\r\n\r\n";
    ASSERT_TRUE(lan.net
                    .udp_multicast(sender.value(), lan.net.group(kSsdpGroup), kSsdpPort,
                                   make_payload(to_bytes(text)))
                    .ok());
    lan.sched.run();
  };
  notify(std::string(kColonless) + "\r\n");
  EXPECT_TRUE(seen.empty());
  notify("");
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].usn, "uuid:1::urn:x:Light:1");
}

// --- the head ----------------------------------------------------------------------

TEST(HeadTest, NamesFoldCaseAndTheLastRepeatWins) {
  auto head = parse_head("NOTIFY * HTTP/1.1\r\nCache-Control: max-age=5\r\nNT :  a \r\n"
                         "nt: b\r\n\r\nbody: not a header");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().start_line, "NOTIFY * HTTP/1.1");
  EXPECT_EQ(head.value().headers.size(), 2u);
  EXPECT_EQ(head.value().header("CACHE-CONTROL"), "max-age=5");
  EXPECT_EQ(head.value().header("Nt"), "b");
  EXPECT_EQ(head.value().header("usn"), "");
  EXPECT_EQ(head.value().header("usn", "none"), "none");
  EXPECT_FALSE(parse_head("NOTIFY * HTTP/1.1\r\nNT: a\r\n").ok()) << "no blank line";
}

TEST(HeadTest, WriterBytesParseBack) {
  const Field fields[] = {{"HOST", "tv:80"}, {"x-empty", ""}};
  const Bytes wire = write_message("GET / HTTP/1.1", fields, "body");
  EXPECT_EQ(umiddle::to_string(wire), "GET / HTTP/1.1\r\nHOST: tv:80\r\nx-empty: \r\n\r\nbody");
  auto head = parse_head(umiddle::to_string(wire));
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().header("host"), "tv:80");
  EXPECT_EQ(head.value().header("X-Empty", "absent"), "");
}

// The reason phrase is the rest of the status line, spaces included.
TEST(HeadTest, ReasonPhraseKeepsItsSpaces) {
  for (const auto& [status, reason] :
       {std::pair{404, "Not Found"}, std::pair{405, "Method Not Allowed"}}) {
    HttpResponseReader reader;
    std::vector<HttpResponse> out;
    ASSERT_TRUE(reader.feed(HttpResponse::make(status, reason).to_wire(), out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, status);
    EXPECT_EQ(out[0].reason, reason);
  }
}

// A parsed message keeps its content-length in the header map. Written again
// with a new body, it is framed by the new body's length, once.
TEST(HeadTest, ContentLengthFollowsTheBody) {
  HttpRequestReader reader;
  std::vector<HttpRequest> out;
  ASSERT_TRUE(reader.feed(to_bytes("POST /c HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"), out).ok());
  ASSERT_EQ(out.size(), 1u);
  out[0].body = "hello";
  EXPECT_EQ(umiddle::to_string(out[0].to_wire()),
            "POST /c HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello");
}

TEST(SsdpTest, AnnouncementCarriesMaxAge) {
  const SsdpAnnouncement a{"urn:x:Light:1", "uuid:1::urn:x:Light:1", "http://d/d.xml", true, 60};
  auto alive = announcement_of(umiddle::to_string(notify_datagram(a, true)));
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive.value(), a);
  auto answer = announcement_of(umiddle::to_string(search_response_datagram(a)));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), a);
  auto bye = announcement_of(umiddle::to_string(notify_datagram(a, false)));
  ASSERT_TRUE(bye.ok());
  EXPECT_FALSE(bye.value().alive);
  EXPECT_EQ(bye.value().max_age, 0u) << "a byebye states no lease";
  for (const char* value : {"max-age = 90", "MAX-AGE=90"}) {
    auto head = "HTTP/1.1 200 OK\r\nUSN: u\r\nCACHE-CONTROL: " + std::string(value) + "\r\n\r\n";
    auto parsed = announcement_of(head);
    ASSERT_TRUE(parsed.ok()) << value;
    EXPECT_EQ(parsed.value().max_age, 90u) << value;
  }
  for (const char* value : {"no-cache", "max-age=", "max-age=-1", "s-maxage=5"}) {
    auto head = "HTTP/1.1 200 OK\r\nUSN: u\r\nCACHE-CONTROL: " + std::string(value) + "\r\n\r\n";
    auto parsed = announcement_of(head);
    ASSERT_TRUE(parsed.ok()) << value;
    EXPECT_EQ(parsed.value().max_age, 0u) << value;
  }
}

// --- MX from the wire ----------------------------------------------------------------

// An M-SEARCH's MX is untrusted. Unbounded, it overflowed the reply delay's
// signed arithmetic (a sanitizer report) or parked the reply tens of
// thousands of days out. UPnP DA 1.0 bounds MX at 120 s, so the reply
// arrives within 120 s plus the 20 ms floor.
TEST(SsdpTest, HugeMxRepliesWithinTheSpecBound) {
  for (const char* mx : {"100000000000", "18446744073709551615"}) {
    Lan lan;
    lan.add_host("living-room-television");
    lan.add_host("cp");
    SsdpAgent device(lan.net, "living-room-television");
    ASSERT_TRUE(device.start().ok());
    device.advertise({"urn:x:TV:1", "uuid:tv::urn:x:TV:1", "http://tv/d.xml", true});
    lan.sched.run();
    std::optional<sim::TimePoint> answered;
    auto socket = lan.net.udp_bind({"cp", 5000}, [&](net::UdpSocket, const Bytes&) {
      if (!answered) answered = lan.sched.now();
    });
    ASSERT_TRUE(socket.ok());
    const sim::TimePoint asked = lan.sched.now();
    const std::string msearch = "M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n"
                                "MAN: \"ssdp:discover\"\r\nMX: " +
                                std::string(mx) + "\r\nST: ssdp:all\r\n\r\n";
    ASSERT_TRUE(lan.net
                    .udp_multicast(socket.value(), lan.net.group(kSsdpGroup), kSsdpPort,
                                   make_payload(to_bytes(msearch)))
                    .ok());
    lan.sched.run();
    ASSERT_TRUE(answered.has_value()) << mx;
    EXPECT_LE(*answered - asked, sim::seconds(120) + sim::milliseconds(20)) << mx;
  }
}

}  // namespace
}  // namespace umiddle::upnp
