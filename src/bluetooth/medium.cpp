#include "bluetooth/medium.hpp"

#include "common/log.hpp"

namespace umiddle::bt {
namespace {

/// Bluetooth 1.2 ACL asymmetric rate, the figure the paper's era assumed.
constexpr double kRadioBps = 723.2e3;

}  // namespace

std::string hex_address(BtAddress address) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (int shift = 44; shift >= 0; shift -= 4) {
    out.push_back(digits[(address >> shift) & 0xF]);
  }
  return out;
}

BluetoothMedium::BluetoothMedium(net::Network& net) : net_(net) {
  net::SegmentSpec spec;
  spec.name = "bt-piconet";
  spec.bandwidth_bps = kRadioBps;
  spec.latency = sim::milliseconds(2);
  spec.shared_medium = true;
  spec.contention_overhead = 0.05;
  spec.frame_overhead = 9;   // baseband access code + header + L2CAP header
  spec.preamble = 0;
  spec.mtu_payload = 339;    // DH5 packet payload
  segment_ = net_.add_segment(spec);
}

Result<void> BluetoothMedium::attach_host(const std::string& host) {
  return net_.attach(host, segment_);
}

void BluetoothMedium::inquiry(std::function<void(std::vector<BtDeviceInfo>)> done,
                              sim::Duration scan_interval) {
  net_.scheduler().schedule_after(
      scan_interval, [this, done = std::move(done)]() { done(devices_in_range()); },
      {0, sim::tag_id("bt.inquiry")});
}

std::uint64_t BluetoothMedium::add_device_listener(DeviceListener listener) {
  for (const auto& [address, device] : devices_) {
    listener(device->info());
  }
  std::uint64_t token = next_listener_token_++;
  listeners_[token] = std::move(listener);
  return token;
}

std::uint64_t BluetoothMedium::add_device_gone_listener(DeviceListener listener) {
  std::uint64_t token = next_listener_token_++;
  gone_listeners_[token] = std::move(listener);
  return token;
}

void BluetoothMedium::remove_listener(std::uint64_t token) {
  listeners_.erase(token);
  gone_listeners_.erase(token);
}

std::vector<BtDeviceInfo> BluetoothMedium::devices_in_range() const {
  std::vector<BtDeviceInfo> out;
  out.reserve(devices_.size());
  for (const auto& [address, device] : devices_) out.push_back(device->info());
  return out;
}

int BluetoothMedium::active_links(BtAddress address) const {
  auto it = links_.find(address);
  return it == links_.end() ? 0 : it->second;
}

void BluetoothMedium::device_powered_on(BtDevice& device) {
  devices_[device.address()] = &device;
  auto listeners = listeners_;  // listeners may (un)register while notified
  for (const auto& [token, l] : listeners) l(device.info());
}

void BluetoothMedium::device_powered_off(BtDevice& device) {
  devices_.erase(device.address());
  auto listeners = gone_listeners_;
  for (const auto& [token, l] : listeners) l(device.info());
}

void BluetoothMedium::track_link(BtAddress address, const net::StreamPtr& stream) {
  links_[address] += 1;
  stream->on_close([this, address]() {
    auto it = links_.find(address);
    if (it != links_.end() && it->second > 0) --it->second;
  });
}

Result<net::StreamPtr> BluetoothMedium::l2cap_connect(const std::string& from_host,
                                                      BtAddress to, std::uint16_t psm) {
  auto device = devices_.find(to);
  if (device == devices_.end()) {
    return make_error(Errc::not_found, "no bluetooth device " + hex_address(to) + " in range");
  }
  // Classic piconet constraint: a device talks to at most 7 active peers.
  if (active_links(to) >= 7) {
    return make_error(Errc::refused, "piconet full: " + device->second->name());
  }
  auto stream = net_.connect(from_host, {device->second->host(), psm});
  if (!stream.ok()) return stream;
  track_link(to, stream.value());
  return stream;
}

// --- BtDevice --------------------------------------------------------------------

BtDevice::BtDevice(BluetoothMedium& medium, std::string name, std::uint32_t class_of_device,
                   std::string host_override)
    : medium_(medium), name_(std::move(name)), class_of_device_(class_of_device),
      address_(medium.allocate_address()),
      host_(host_override.empty() ? "bt-" + hex_address(address_) : std::move(host_override)),
      dedicated_host_(host_override.empty()) {}

BtDevice::~BtDevice() { power_off(); }

Result<void> BtDevice::power_on() {
  if (powered_) return ok_result();
  if (dedicated_host_ && !medium_.network().host_exists(host_)) {
    if (auto r = medium_.network().add_host(host_); !r.ok()) return r;
  }
  if (auto r = medium_.network().attach(host_, medium_.segment()); !r.ok()) return r;
  powered_ = true;
  if (auto r = on_power_on(); !r.ok()) {
    powered_ = false;
    return r;
  }
  medium_.device_powered_on(*this);
  return ok_result();
}

void BtDevice::power_off() {
  if (!powered_) return;
  on_power_off();
  for (std::uint16_t psm : open_psms_) {
    medium_.network().stop_listening({host_, psm});
  }
  open_psms_.clear();
  medium_.device_powered_off(*this);
  powered_ = false;
}

Result<void> BtDevice::listen_psm(std::uint16_t psm, net::AcceptHandler handler) {
  auto r = medium_.network().listen({host_, psm}, std::move(handler));
  if (!r.ok()) return r;
  open_psms_.push_back(psm);
  return ok_result();
}

void BtDevice::stop_psm(std::uint16_t psm) {
  medium_.network().stop_listening({host_, psm});
  std::erase(open_psms_, psm);
}

}  // namespace umiddle::bt
