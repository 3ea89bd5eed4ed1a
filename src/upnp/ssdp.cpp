#include "upnp/ssdp.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

namespace umiddle::upnp {
namespace {

std::map<std::string, std::string> parse_headers(const std::vector<std::string>& lines) {
  std::map<std::string, std::string> headers;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) continue;
    headers[strings::to_lower(strings::trim(lines[i].substr(0, colon)))] =
        std::string(strings::trim(lines[i].substr(colon + 1)));
  }
  return headers;
}

}  // namespace

SsdpAgent::SsdpAgent(net::Network& net, std::string host)
    : net_(net), host_(std::move(host)) {}

SsdpAgent::~SsdpAgent() { stop(); }

Result<void> SsdpAgent::start() {
  if (socket_) return ok_result();
  auto bind = net_.udp_bind({host_, kSsdpPort},
                            [this](const net::Endpoint& from, const Bytes& payload) {
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
  replies_.clear();
  socket_.reset();
}

Result<void> SsdpAgent::search(const std::string& target, int mx_seconds) {
  std::string msg = "M-SEARCH * HTTP/1.1\r\n"
                    "HOST: 239.255.255.250:1900\r\n"
                    "MAN: \"ssdp:discover\"\r\n"
                    "MX: " + std::to_string(mx_seconds) + "\r\n"
                    "ST: " + target + "\r\n\r\n";
  if (!socket_) return make_error(Errc::disconnected, "ssdp: search before start");
  return net_.udp_multicast(*socket_, kSsdpGroup, kSsdpPort, make_payload(to_bytes(msg)));
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
  std::string msg = "NOTIFY * HTTP/1.1\r\n"
                    "HOST: 239.255.255.250:1900\r\n"
                    "NT: " + a.notification_type + "\r\n"
                    "NTS: " + std::string(alive ? "ssdp:alive" : "ssdp:byebye") + "\r\n"
                    "USN: " + a.usn + "\r\n";
  if (alive) msg += "LOCATION: " + a.location + "\r\nCACHE-CONTROL: max-age=1800\r\n";
  msg += "\r\n";
  if (!socket_) return;
  auto r = net_.udp_multicast(*socket_, kSsdpGroup, kSsdpPort, make_payload(to_bytes(msg)));
  if (!r.ok()) {
    log::Entry(log::Level::warn, "ssdp") << "notify failed: " << r.error().to_string();
  }
}

void SsdpAgent::answer_search(const net::Endpoint& to, const SsdpAnnouncement& a) {
  std::string msg = "HTTP/1.1 200 OK\r\n"
                    "ST: " + a.notification_type + "\r\n"
                    "USN: " + a.usn + "\r\n"
                    "LOCATION: " + a.location + "\r\n"
                    "CACHE-CONTROL: max-age=1800\r\n\r\n";
  (void)net_.udp_send(*socket_, to, make_payload(to_bytes(msg)));
}

void SsdpAgent::handle_datagram(const net::Endpoint& from, const Bytes& payload) {
  std::string text = umiddle::to_string(payload);
  auto lines = strings::split(text, "\r\n");
  if (lines.empty()) return;
  auto headers = parse_headers(lines);

  if (strings::starts_with(lines[0], "NOTIFY") || strings::starts_with(lines[0], "HTTP/1.1 200")) {
    SsdpAnnouncement a;
    bool is_response = strings::starts_with(lines[0], "HTTP/");
    a.notification_type = headers.count(is_response ? "st" : "nt") != 0
                              ? headers[is_response ? "st" : "nt"]
                              : "";
    a.usn = headers.count("usn") != 0 ? headers["usn"] : "";
    a.location = headers.count("location") != 0 ? headers["location"] : "";
    a.alive = is_response || (headers.count("nts") != 0 && headers["nts"] == "ssdp:alive");
    if (a.usn.empty()) return;
    if (on_announcement_) on_announcement_(a);
    return;
  }

  if (strings::starts_with(lines[0], "M-SEARCH")) {
    if (advertised_.empty()) return;
    std::string target = headers.count("st") != 0 ? headers["st"] : "ssdp:all";
    std::uint64_t mx = 1;
    if (headers.count("mx") != 0) (void)strings::parse_u64(headers["mx"], mx);
    // Deterministic per-host response delay spread inside the MX window.
    std::uint64_t spread = 0;
    for (char c : host_) spread = spread * 31 + static_cast<unsigned char>(c);
    sim::Duration delay = sim::milliseconds(
        20 + static_cast<std::int64_t>(spread % (mx * 400 + 1)));
    Reply reply{from, {}};
    for (const SsdpAnnouncement& a : advertised_) {
      if (target == "ssdp:all" || target == a.notification_type) reply.matched.push_back(a);
    }
    const std::uint32_t key = replies_.put(std::move(reply));
    net_.scheduler().schedule_after(
        delay, lifetime_.guard([this, key]() {
          const auto [to, matched] = replies_.take(key);
          for (const SsdpAnnouncement& a : matched) answer_search(to, a);
        }),
        {sim::host_id(host_), sim::tag_id("upnp.ssdp")});
  }
}

}  // namespace umiddle::upnp
