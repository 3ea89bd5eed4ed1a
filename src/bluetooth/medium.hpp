// Bluetooth baseband/L2CAP model.
//
// Substitutes for the paper's BlueZ dongles: a shared 723 kbps radio segment
// (Bluetooth 1.2 ACL rate) on which emulated devices register. Supports:
//   * inquiry — enumerates in-range devices after an inquiry scan interval;
//   * discovery listeners — the mapper reacts to devices *after* discovery,
//     matching Fig. 10's "after they are discovered in their native platforms";
//   * L2CAP connection-oriented channels, addressed by (BtAddress, PSM), with
//     paging latency and the classic piconet limit of 7 active peers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/stream.hpp"
#include "sim/scheduler.hpp"

namespace umiddle::bt {

using BtAddress = std::uint64_t;

/// The 48-bit BD_ADDR as 12 lowercase hex digits (fixed width, so text order
/// is address order).
std::string hex_address(BtAddress address);

/// Well-known L2CAP PSMs.
constexpr std::uint16_t kPsmSdp = 0x0001;
constexpr std::uint16_t kPsmHidControl = 0x0011;
constexpr std::uint16_t kPsmHidInterrupt = 0x0013;
constexpr std::uint16_t kPsmObexBip = 0x1003;

struct BtDeviceInfo {
  BtAddress address = 0;
  std::string name;
  std::uint32_t class_of_device = 0;
};

class BtDevice;

class BluetoothMedium {
 public:
  using DeviceListener = std::function<void(const BtDeviceInfo&)>;

  explicit BluetoothMedium(net::Network& net);

  net::Network& network() { return net_; }
  net::SegmentId segment() const { return segment_; }

  /// Attach an existing netsim host (e.g. a uMiddle runtime node) to the radio.
  [[nodiscard]] Result<void> attach_host(const std::string& host);

  /// Inquiry: report all in-range devices after the scan interval.
  void inquiry(std::function<void(std::vector<BtDeviceInfo>)> done,
               sim::Duration scan_interval = sim::seconds(2));

  /// Register for "device discovered" events (fires immediately for devices
  /// already powered on, then on every future power-on). Returns a token for
  /// remove_listener — listeners must be removed before their captures die.
  std::uint64_t add_device_listener(DeviceListener listener);
  /// Register for "device disappeared" (powered off / out of range) events.
  std::uint64_t add_device_gone_listener(DeviceListener listener);
  void remove_listener(std::uint64_t token);

  /// Open an L2CAP channel to (address, psm) from a host on the radio.
  /// Enforces the 7-active-peer piconet limit on the target.
  [[nodiscard]] Result<net::StreamPtr> l2cap_connect(const std::string& from_host, BtAddress to,
                                       std::uint16_t psm);

  std::vector<BtDeviceInfo> devices_in_range() const;
  int active_links(BtAddress address) const;

  // --- BtDevice plumbing -----------------------------------------------------
  BtAddress allocate_address() { return next_address_++; }
  void device_powered_on(BtDevice& device);
  void device_powered_off(BtDevice& device);
  void track_link(BtAddress address, const net::StreamPtr& stream);

 private:
  net::Network& net_;
  net::SegmentId segment_;
  BtAddress next_address_ = 0x00A0C9000001ull;
  std::map<BtAddress, BtDevice*> devices_;
  std::map<BtAddress, int> links_;
  std::map<std::uint64_t, DeviceListener> listeners_;
  std::map<std::uint64_t, DeviceListener> gone_listeners_;
  std::uint64_t next_listener_token_ = 1;
};

/// Base class for emulated Bluetooth devices: owns a netsim host on the radio,
/// an SDP server on PSM 1, and PSM listeners for its profiles.
class BtDevice {
 public:
  /// If `host_override` is empty a dedicated host "bt-<addr>" is created.
  BtDevice(BluetoothMedium& medium, std::string name, std::uint32_t class_of_device,
           std::string host_override = {});
  virtual ~BtDevice();
  BtDevice(const BtDevice&) = delete;
  BtDevice& operator=(const BtDevice&) = delete;

  [[nodiscard]] Result<void> power_on();
  void power_off();
  bool powered() const { return powered_; }

  BtAddress address() const { return address_; }
  const std::string& name() const { return name_; }
  std::uint32_t class_of_device() const { return class_of_device_; }
  const std::string& host() const { return host_; }
  BtDeviceInfo info() const { return {address_, name_, class_of_device_}; }

  /// Listen for L2CAP channels on a PSM.
  [[nodiscard]] Result<void> listen_psm(std::uint16_t psm, net::AcceptHandler handler);
  void stop_psm(std::uint16_t psm);

 protected:
  BluetoothMedium& medium() { return medium_; }
  /// Hook for subclasses to start their servers; runs inside power_on.
  [[nodiscard]] virtual Result<void> on_power_on() { return ok_result(); }
  virtual void on_power_off() {}

 private:
  BluetoothMedium& medium_;
  std::string name_;
  std::uint32_t class_of_device_;
  BtAddress address_;
  std::string host_;
  bool dedicated_host_;
  bool powered_ = false;
  std::vector<std::uint16_t> open_psms_;
};

}  // namespace umiddle::bt
