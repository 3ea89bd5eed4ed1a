// The Berkeley Motes mapper: listens on the sensor-net radio and imports each
// mote as a translator with one telemetry output port.
//
// USDL binding kind understood by this mapper:
//   kind="am-telemetry" — Active-Message readings from the mote are emitted
//       from the binding's (output) port as small XML documents:
//       <reading mote="3" sensor="light" value="117" seq="42"/>
//
// A mote that stays silent for `silence_timeout` is considered gone (motes die
// and never say goodbye) and its translator is unmapped.
#pragma once

#include <memory>
#include <optional>

#include "core/umiddle.hpp"
#include "motes/motes.hpp"

namespace umiddle::motes {

class MoteMapper;

class MoteTranslator final : public core::UsdlTranslator {
 public:
  MoteTranslator(std::uint16_t mote_id, SensorKind kind, const core::UsdlService& usdl);

  [[nodiscard]] Result<void> deliver(const std::string& port, const core::Message& msg) override;

  /// Called by the mapper when a reading from this mote arrives.
  void handle_reading(const Reading& reading);

  std::uint16_t mote_id() const { return mote_id_; }

 private:
  std::uint16_t mote_id_;
};

class MoteMapper final : public core::Mapper {
 public:
  MoteMapper(MoteField& field, const core::UsdlLibrary& library,
             sim::Duration silence_timeout = sim::seconds(10));

  void start(core::Runtime& runtime) override;
  void stop() override;

 private:
  void handle_packet(const Bytes& payload);
  void sweep();

  MoteField& field_;
  sim::Duration silence_timeout_;
  std::optional<sim::Timer> sweep_timer_;  ///< next silence sweep; set while started
  std::optional<net::UdpSocket> socket_;   ///< the AM socket; set while bound
};

/// Register the built-in USDL documents for mote sensor kinds.
void register_motes_usdl(core::UsdlLibrary& library);

}  // namespace umiddle::motes
