#include "motes/motes.hpp"

#include "common/log.hpp"
#include "netsim/fault.hpp"

namespace umiddle::motes {

const char* to_string(SensorKind kind) {
  switch (kind) {
    case SensorKind::light: return "light";
    case SensorKind::temperature: return "temperature";
    case SensorKind::humidity: return "humidity";
  }
  return "unknown";
}

Bytes Reading::encode() const {
  ByteWriter w;
  w.u16(kAmTelemetry);
  w.u16(mote_id);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(value);
  w.u16(sequence);
  return w.take();
}

Result<Reading> Reading::decode(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  const std::uint16_t am = r.u16();
  if (!r.ok()) return r.error();
  if (am != kAmTelemetry) return make_error(Errc::protocol_error, "motes: unknown AM type");
  Reading reading;
  reading.mote_id = r.u16();
  const std::uint8_t kind = r.u8();
  if (!r.ok()) return r.error();
  if (kind < 1 || kind > 3) return make_error(Errc::protocol_error, "motes: bad sensor kind");
  reading.kind = static_cast<SensorKind>(kind);
  reading.value = r.u16();
  reading.sequence = r.u16();
  if (!r.ok()) return r.error();
  return reading;
}

MoteField::MoteField(net::Network& net, double loss) : net_(net) {
  net::SegmentSpec spec;
  spec.name = "mote-radio";
  spec.bandwidth_bps = 250e3;  // 802.15.4-class rate
  spec.latency = sim::milliseconds(3);
  spec.shared_medium = true;
  spec.contention_overhead = 0.1;
  spec.frame_overhead = 11;  // AM + CC2420-style framing
  spec.preamble = 6;
  spec.mtu_payload = 28;
  segment_ = net_.add_segment(spec);
  // Loss is fault-plane business: all loss-probability mutation goes through
  // one choke point (lint rule fault-loss) so chaos scenarios can reason about
  // every lossy segment in the world.
  net_.faults().set_loss(segment_, loss);
}

Result<void> MoteField::attach_gateway(const std::string& host) {
  if (auto r = net_.attach(host, segment_); !r.ok()) return r;
  return net_.join_group(host, kAmGroup);
}

Mote::Mote(MoteField& field, std::uint16_t id, SensorKind kind, sim::Duration period)
    : field_(field), id_(id), kind_(kind), period_(period),
      host_("mote-" + std::to_string(id)), group_(field.network().group(kAmGroup)),
      tick_(field.network().scheduler(), {sim::host_id(host_), sim::tag_id("motes.tick")},
            [this]() { tick(); }) {}

Result<void> Mote::start() {
  if (running_) return ok_result();
  if (!field_.network().host_exists(host_)) {
    if (auto r = field_.network().add_host(host_); !r.ok()) return r;
    if (auto r = field_.network().attach(host_, field_.segment()); !r.ok()) return r;
  }
  // The radio sends from this socket. A mote joins no group, so nothing is
  // delivered to it.
  auto bind = field_.network().udp_bind({host_, kAmPort}, [](net::UdpSocket, const Bytes&) {});
  if (!bind.ok()) return bind.error();
  socket_ = bind.value();
  running_ = true;
  tick();
  return ok_result();
}

void Mote::stop() {
  if (!running_) return;
  running_ = false;
  tick_.cancel();
  field_.network().udp_close(socket_);
}

std::uint16_t Mote::sample(std::uint16_t sequence) const {
  // Triangle wave in [base, base+64), keyed by mote id.
  std::uint16_t base = static_cast<std::uint16_t>(100 + (id_ % 16) * 25);
  std::uint16_t phase = static_cast<std::uint16_t>(sequence % 128);
  std::uint16_t wave = phase < 64 ? phase : static_cast<std::uint16_t>(127 - phase);
  return static_cast<std::uint16_t>(base + wave);
}

void Mote::tick() {
  Reading reading{id_, kind_, sample(sequence_), sequence_};
  ++sequence_;
  auto r = field_.network().udp_multicast(socket_, group_, kAmPort,
                                          make_payload(reading.encode()));
  if (!r.ok()) {
    log::Entry(log::Level::warn, "motes") << "broadcast failed: " << r.error().to_string();
  }
  tick_.arm(period_);
}

}  // namespace umiddle::motes
