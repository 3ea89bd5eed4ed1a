#include "upnp/ssdp.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"
#include "upnp/http.hpp"

namespace umiddle::upnp {
namespace {

constexpr std::string_view kGroupHost = "239.255.255.250:1900";

/// The seconds of a CACHE-CONTROL value `max-age=N` (RFC 7234 §5.2.2.8), at
/// most UINT32_MAX; 0 for any other value.
std::uint32_t max_age_of(std::string_view value) {
  const std::size_t eq = value.find('=');
  std::uint64_t seconds = 0;
  const bool ok = eq != std::string_view::npos &&
                  strings::iequals(strings::trim(value.substr(0, eq)), "max-age") &&
                  strings::parse_u64(strings::trim(value.substr(eq + 1)), seconds);
  return ok ? static_cast<std::uint32_t>(std::min<std::uint64_t>(seconds, UINT32_MAX)) : 0;
}

}  // namespace

Result<SsdpAnnouncement> announcement_of(std::string_view datagram) {
  auto parsed = parse_head(datagram);
  if (!parsed.ok()) return parsed.error();
  const Head& head = parsed.value();
  const bool is_response = strings::starts_with(head.start_line, "HTTP/1.1 200");
  SsdpAnnouncement a{head.header(is_response ? "st" : "nt"), head.header("usn"),
                     head.header("location"), is_response || head.header("nts") == "ssdp:alive",
                     max_age_of(head.header("cache-control"))};
  if ((!is_response && !strings::starts_with(head.start_line, "NOTIFY")) || a.usn.empty()) {
    return make_error(Errc::parse_error, "ssdp: not an announcement: " + head.start_line);
  }
  return a;
}

Bytes notify_datagram(const SsdpAnnouncement& a, bool alive) {
  const std::string max_age = "max-age=" + std::to_string(a.max_age);
  const Field fields[] = {{"HOST", kGroupHost}, {"NT", a.notification_type},
                          {"NTS", alive ? "ssdp:alive" : "ssdp:byebye"}, {"USN", a.usn},
                          {"LOCATION", a.location}, {"CACHE-CONTROL", max_age}};
  return write_message("NOTIFY * HTTP/1.1", std::span(fields).first(alive ? 6 : 4));
}

Bytes search_response_datagram(const SsdpAnnouncement& a) {
  const std::string max_age = "max-age=" + std::to_string(a.max_age);
  const Field fields[] = {{"ST", a.notification_type}, {"USN", a.usn},
                          {"LOCATION", a.location}, {"CACHE-CONTROL", max_age}};
  return write_message("HTTP/1.1 200 OK", fields);
}

SsdpAgent::SsdpAgent(net::Network& net, std::string host)
    : net_(net), host_(std::move(host)), group_(net.group(kSsdpGroup)) {}

SsdpAgent::~SsdpAgent() { stop(); }

Result<void> SsdpAgent::start() {
  if (socket_) return ok_result();
  auto bind = net_.udp_bind({host_, kSsdpPort},
                            [this](net::UdpSocket from, const Bytes& payload) {
                              handle_datagram(from, payload);
                            });
  if (!bind.ok()) return bind.error();
  if (auto join = net_.join_group(host_, kSsdpGroup); !join.ok()) {
    net_.udp_close(bind.value());
    return join;
  }
  socket_ = bind.value();
  return ok_result();
}

void SsdpAgent::stop() {
  if (!socket_) return;
  for (const SsdpAnnouncement& a : advertised_) send_notify(a, /*alive=*/false);
  net_.leave_group(host_, kSsdpGroup);
  net_.udp_close(*socket_);
  lifetime_.reset();
  socket_.reset();
}

Result<void> SsdpAgent::search(const std::string& target) {
  const Field fields[] = {
      {"HOST", kGroupHost}, {"MAN", "\"ssdp:discover\""}, {"MX", "2"}, {"ST", target}};
  if (!socket_) return make_error(Errc::disconnected, "ssdp: search before start");
  return net_.udp_multicast(*socket_, group_, kSsdpPort,
                            make_payload(write_message("M-SEARCH * HTTP/1.1", fields)));
}

void SsdpAgent::advertise(SsdpAnnouncement announcement) {
  send_notify(announcement, /*alive=*/true);
  advertised_.push_back(std::move(announcement));
}

void SsdpAgent::withdraw(const std::string& usn) {
  for (auto it = advertised_.begin(); it != advertised_.end(); ++it) {
    if (it->usn == usn) {
      send_notify(*it, /*alive=*/false);
      advertised_.erase(it);
      return;
    }
  }
}

void SsdpAgent::send_notify(const SsdpAnnouncement& a, bool alive) {
  if (!socket_) return;
  auto r = net_.udp_multicast(*socket_, group_, kSsdpPort,
                              make_payload(notify_datagram(a, alive)));
  if (!r.ok()) {
    log::Entry(log::Level::warn, "ssdp") << "notify failed: " << r.error().to_string();
  }
}

void SsdpAgent::handle_datagram(net::UdpSocket from, const Bytes& payload) {
  // A malformed head drops the datagram.
  const std::string_view text(reinterpret_cast<const char*>(payload.data()), payload.size());
  if (!strings::starts_with(text, "M-SEARCH")) {
    auto a = announcement_of(text);
    if (a.ok() && on_announcement_) on_announcement_(a.value());
    return;
  }
  auto head = parse_head(text);
  if (!head.ok() || advertised_.empty()) return;
  const std::string target = head.value().header("st", "ssdp:all");
  std::uint64_t mx = 1;
  (void)strings::parse_u64(head.value().header("mx"), mx);
  // UPnP DA 1.0 §1.2.3 bounds MX at 120 s. An MX from the wire is untrusted,
  // and the reply delay below is signed arithmetic on it.
  mx = std::min<std::uint64_t>(mx, 120);
  // Deterministic per-host response delay spread inside the MX window.
  std::uint64_t spread = 0;
  for (char c : host_) spread = spread * 31 + static_cast<unsigned char>(c);
  sim::Duration delay =
      sim::milliseconds(20 + static_cast<std::int64_t>(spread % (mx * 400 + 1)));
  std::vector<SsdpAnnouncement> matched;
  for (const SsdpAnnouncement& a : advertised_) {
    if (target == "ssdp:all" || target == a.notification_type) matched.push_back(a);
  }
  net_.scheduler().schedule_after(
      delay, lifetime_.guard([this, from, matched = std::move(matched)]() {
        for (const SsdpAnnouncement& a : matched) {
          (void)net_.udp_send(*socket_, from, make_payload(search_response_datagram(a)));
        }
      }),
      {sim::host_id(host_), sim::tag_id("upnp.ssdp")});
}

}  // namespace umiddle::upnp
