// SSDP — Simple Service Discovery Protocol (UPnP's discovery layer).
//
// HTTP-like messages over multicast UDP on port 1900:
//   NOTIFY ssdp:alive / ssdp:byebye — unsolicited device announcements;
//   M-SEARCH — active search; devices answer with a unicast 200 OK after a
//   random delay within MX seconds (we use a deterministic per-device delay).
// Each is an HTTP head (upnp::Head), read and written by http.cpp's one
// reader and one writer.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "netsim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace umiddle::upnp {

constexpr std::uint16_t kSsdpPort = 1900;
inline const char* kSsdpGroup = "ssdp:239.255.255.250";

/// One discovery event: a device announcing itself or answering a search.
struct SsdpAnnouncement {
  std::string notification_type;  ///< NT / ST, e.g. a device type URN
  std::string usn;                ///< unique service name, e.g. "uuid:...::urn:..."
  std::string location;           ///< URL of the device description document
  bool alive = true;              ///< false for ssdp:byebye
  /// Seconds the announcement stays valid (CACHE-CONTROL max-age); a received
  /// one is 0 when the datagram states none.
  std::uint32_t max_age = 1800;

  bool operator==(const SsdpAnnouncement&) const = default;
};

/// The announcement a NOTIFY or search-response datagram carries. A
/// malformed head, any other message and one without a USN are parse_errors.
[[nodiscard]] Result<SsdpAnnouncement> announcement_of(std::string_view datagram);
/// NOTIFY ssdp:alive or ssdp:byebye for `a`. A byebye carries neither
/// LOCATION nor CACHE-CONTROL.
Bytes notify_datagram(const SsdpAnnouncement& a, bool alive);
/// The unicast answer to an M-SEARCH that `a` matches.
Bytes search_response_datagram(const SsdpAnnouncement& a);

/// Both halves of SSDP; devices use announce/byebye + search responses,
/// control points use search() and the announcement callback.
class SsdpAgent {
 public:
  using AnnouncementFn = std::function<void(const SsdpAnnouncement&)>;

  SsdpAgent(net::Network& net, std::string host);
  ~SsdpAgent();
  SsdpAgent(const SsdpAgent&) = delete;
  SsdpAgent& operator=(const SsdpAgent&) = delete;

  [[nodiscard]] Result<void> start();
  void stop();

  /// Control-point side: called for alive/byebye notifies and search replies.
  void on_announcement(AnnouncementFn fn) { on_announcement_ = std::move(fn); }
  /// Multicast an M-SEARCH for the given search target ("ssdp:all" or a URN),
  /// with MX 2.
  [[nodiscard]] Result<void> search(const std::string& target);

  /// Device side: register something to be announced (if started) and answered for.
  void advertise(SsdpAnnouncement announcement);
  /// Multicast ssdp:byebye (if started) and stop answering for this USN.
  void withdraw(const std::string& usn);

 private:
  void handle_datagram(net::UdpSocket from, const Bytes& payload);
  void send_notify(const SsdpAnnouncement& a, bool alive);

  net::Network& net_;
  std::string host_;
  /// Bound by start(), which every send needs; reset by stop().
  std::optional<net::UdpSocket> socket_;
  net::GroupId group_;  ///< kSsdpGroup, interned once
  std::vector<SsdpAnnouncement> advertised_;
  AnnouncementFn on_announcement_;
  /// Guards pending search replies; reset by stop().
  sim::Lifetime lifetime_;
};

}  // namespace umiddle::upnp
