#include "bluetooth/hidp.hpp"

namespace umiddle::bt {

Bytes MouseReport::encode() const {
  return Bytes{0xA1, buttons, static_cast<std::uint8_t>(dx), static_cast<std::uint8_t>(dy),
               static_cast<std::uint8_t>(wheel)};
}

Result<MouseReport> MouseReport::decode(std::span<const std::uint8_t> wire) {
  if (wire.size() != 5 || wire[0] != 0xA1) {
    return make_error(Errc::protocol_error, "hidp: not a DATA input report");
  }
  MouseReport r;
  r.buttons = wire[1];
  r.dx = static_cast<std::int8_t>(wire[2]);
  r.dy = static_cast<std::int8_t>(wire[3]);
  r.wheel = static_cast<std::int8_t>(wire[4]);
  return r;
}

Result<std::size_t> next_report(std::span<const std::uint8_t> buffer,
                                std::vector<MouseReport>& out) {
  if (buffer.size() < 5) return 0;
  auto report = MouseReport::decode(buffer.first(5));
  if (report.ok()) out.push_back(report.value());
  return 5;
}

HidMouse::HidMouse(BluetoothMedium& medium, std::string name)
    : BtDevice(medium, std::move(name), /*class_of_device=*/0x002580 /* peripheral/mouse */) {
  records_.push_back(SdpRecord{1, kUuidHid, "HID Mouse", kPsmHidInterrupt, "HID"});
}

Result<void> HidMouse::on_power_on() {
  if (auto r = start_sdp_server(*this, &records_); !r.ok()) return r;
  // Hosts connect to us; we keep every accepted interrupt channel.
  return listen_psm(kPsmHidInterrupt, [this](net::StreamPtr stream) {
    net::Stream* raw = stream.get();
    stream->on_close([this, raw]() {
      std::erase_if(channels_, [raw](const net::StreamPtr& s) { return s.get() == raw; });
    });
    channels_.push_back(std::move(stream));
  });
}

void HidMouse::on_power_off() {
  for (const net::StreamPtr& channel : channels_) channel->close();
  channels_.clear();
}

void HidMouse::send_report(const MouseReport& report) {
  for (const net::StreamPtr& channel : channels_) {
    if (channel->send(report.encode()).ok()) ++reports_sent_;
  }
}

void HidMouse::click(std::uint8_t buttons) {
  send_report(MouseReport{buttons, 0, 0, 0});
  send_report(MouseReport{0, 0, 0, 0});  // release
}

void HidMouse::move(std::int8_t dx, std::int8_t dy) {
  send_report(MouseReport{0, dx, dy, 0});
}

}  // namespace umiddle::bt
