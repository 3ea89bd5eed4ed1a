// Berkeley Motes platform (the paper lists "the Berkeley Motes platform" among
// the bridged middleware).
//
// Substitutes for TinyOS hardware: a lossy low-rate radio segment on which
// motes broadcast Active-Message telemetry packets:
//
//   u16 am-type (0x25 = telemetry), u16 mote-id, u8 sensor-kind,
//   u16 value, u16 sequence
//
// Readings follow a deterministic waveform so runs are reproducible.
#pragma once

#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "netsim/network.hpp"
#include "sim/timer.hpp"

namespace umiddle::motes {

constexpr std::uint16_t kAmTelemetry = 0x25;
constexpr std::uint16_t kAmPort = 3100;
inline const char* kAmGroup = "motes:am";

enum class SensorKind : std::uint8_t { light = 1, temperature = 2, humidity = 3 };

const char* to_string(SensorKind kind);

struct Reading {
  std::uint16_t mote_id = 0;
  SensorKind kind = SensorKind::light;
  std::uint16_t value = 0;
  std::uint16_t sequence = 0;

  Bytes encode() const;
  static Result<Reading> decode(std::span<const std::uint8_t> wire);

  friend bool operator==(const Reading&, const Reading&) = default;
};

/// The shared sensor-net radio: 250 kbps, lossy, broadcast.
class MoteField {
 public:
  explicit MoteField(net::Network& net, double loss = 0.02);

  net::Network& network() { return net_; }
  net::SegmentId segment() const { return segment_; }

  /// Attach a gateway host (a uMiddle node) to the radio + AM group.
  [[nodiscard]] Result<void> attach_gateway(const std::string& host);

 private:
  net::Network& net_;
  net::SegmentId segment_;
};

/// An emulated sensor mote broadcasting periodic telemetry.
class Mote {
 public:
  Mote(MoteField& field, std::uint16_t id, SensorKind kind,
       sim::Duration period = sim::seconds(1));

  [[nodiscard]] Result<void> start();
  void stop();

  std::uint16_t id() const { return id_; }
  SensorKind kind() const { return kind_; }
  std::uint16_t sequence() const { return sequence_; }

  /// Deterministic sensor waveform: a triangle wave keyed by id and sequence.
  std::uint16_t sample(std::uint16_t sequence) const;

 private:
  void tick();

  MoteField& field_;
  std::uint16_t id_;
  SensorKind kind_;
  sim::Duration period_;
  std::string host_;
  net::GroupId group_;     ///< kAmGroup
  net::UdpSocket socket_;  ///< {host_, kAmPort}, bound while running
  bool running_ = false;
  std::uint16_t sequence_ = 0;
  sim::Timer tick_;  ///< next broadcast; armed while running
};

}  // namespace umiddle::motes
