// HIDP — Bluetooth Human Interface Device Profile (the paper's §5.2 mouse).
//
// The host opens the interrupt channel (PSM 0x13); the device then streams
// DATA-input-report transactions: 0xA1 followed by the boot-protocol mouse
// report (buttons, dx, dy, wheel).
#pragma once

#include "bluetooth/medium.hpp"
#include "bluetooth/sdp.hpp"

namespace umiddle::bt {

inline const char* kUuidHid = "0x1124";

/// Boot-protocol mouse report.
struct MouseReport {
  std::uint8_t buttons = 0;
  std::int8_t dx = 0;
  std::int8_t dy = 0;
  std::int8_t wheel = 0;

  Bytes encode() const;  ///< 0xA1 + 4 report bytes
  static Result<MouseReport> decode(std::span<const std::uint8_t> wire);
};

/// Decode step for the 5-byte report transaction at the front of a receive
/// buffer. A bad transaction is consumed and skipped: it decodes to nothing,
/// and the reports after it decode as usual.
[[nodiscard]] Result<std::size_t> next_report(std::span<const std::uint8_t> buffer,
                                              std::vector<MouseReport>& out);

using HidReader = FrameReader<MouseReport, next_report>;

class HidMouse : public BtDevice {
 public:
  HidMouse(BluetoothMedium& medium, std::string name = "HIDP Mouse");

  /// Generate input: sent to every host with an open interrupt channel.
  void click(std::uint8_t buttons = 1);
  void move(std::int8_t dx, std::int8_t dy);

  std::size_t open_channels() const { return channels_.size(); }
  std::uint64_t reports_sent() const { return reports_sent_; }

 protected:
  [[nodiscard]] Result<void> on_power_on() override;
  void on_power_off() override;

 private:
  void send_report(const MouseReport& report);

  std::vector<SdpRecord> records_;
  std::vector<net::StreamPtr> channels_;
  std::uint64_t reports_sent_ = 0;
};

}  // namespace umiddle::bt
