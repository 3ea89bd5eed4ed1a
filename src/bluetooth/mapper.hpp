// The Bluetooth mapper and its generic, USDL-parameterized translator
// (paper §3.2: "we can provide a generic Bluetooth BIP translator
// implementation which is parameterized for these different specific types of
// devices based on different USDL documents").
//
// USDL binding kinds understood by this mapper:
//   kind="obex-get"       — an input-port message triggers an OBEX GET of
//       native attr type="..." on the device; the fetched object is emitted
//       from emit="<port>" (BIP camera pull).
//   kind="obex-put"       — an input-port message is OBEX-PUT to the device
//       as an object of native attr type="..." (BIP printer).
//   kind="obex-push-sink" — the translator runs an OBEX server and registers
//       itself as the device's push target (BIP camera push); received
//       objects are emitted from the binding's (output) port.
//   kind="hid-events"     — the translator opens the device's interrupt
//       channel; each HID report is translated to a VML document (paper §5.2)
//       and emitted from the binding's port.
#pragma once

#include <deque>
#include <memory>

#include "bluetooth/bip.hpp"
#include "bluetooth/hidp.hpp"
#include "bluetooth/obex.hpp"
#include "bluetooth/sdp.hpp"
#include "core/umiddle.hpp"

namespace umiddle::bt {

/// Virtual-time costs of the 2006 Bluetooth stack.
struct BtCosts {
  /// Translating a HID report into a VML document (paper §5.2: "the average
  /// overhead is 23 milliseconds" — ≈21 ms of it is this translation, the
  /// rest per-message transport cost).
  sim::Duration vml_translate = sim::milliseconds(21);
  /// Inquiry scan interval (excluded from Fig. 10, which measures mapping
  /// time *after* discovery).
  sim::Duration inquiry = sim::seconds(2);
};

class BtMapper;

/// Generic Bluetooth translator, parameterized by a USDL service description
/// and the device's SDP record.
class BtTranslator final : public core::UsdlTranslator {
 public:
  BtTranslator(BtMapper& mapper, BtDeviceInfo device, SdpRecord record,
               const core::UsdlService& usdl);
  ~BtTranslator() override;

  [[nodiscard]] Result<void> deliver(const std::string& port, const core::Message& msg) override;
  void on_mapped() override;

 private:
  void teardown() override;
  void setup_push_sink(const core::UsdlBinding& binding);
  void setup_hid_events(const core::UsdlBinding& binding);
  /// Open an L2CAP channel from the adapter to the device's service PSM.
  [[nodiscard]] Result<net::StreamPtr> connect_service();
  void run_obex_get(const core::UsdlBinding& binding);
  /// `msg` is the queued copy of the delivered message: its payload moves on.
  void run_obex_put(const core::UsdlBinding& binding, core::Message msg);
  void handle_hid_report(const MouseReport& r);
  void emit_object(const std::string& port, obex::Object object);
  void finish_operation();

  BtMapper& mapper_;
  BtDeviceInfo device_;
  SdpRecord record_;
  /// Open "native.bt" span for the in-flight OBEX operation (obs tracing);
  /// closed by finish_operation on every completion/failure path.
  std::uint64_t native_span_ = 0;
  std::uint16_t sink_psm_ = 0;
  std::unique_ptr<obex::Server> sink_server_;
  /// Open "native.bt" spans for inbound pushes, one per accepted sink
  /// connection, FIFO: OBEX clients are one-connection-per-operation, so the
  /// oldest open connection is the one whose object completes first.
  std::deque<std::uint64_t> sink_spans_;
  net::StreamPtr hid_channel_;
  /// The hid-events binding's port, kept here so a report's translation
  /// event captures no string and fits sim::Callback.
  std::string hid_port_;
};

/// The mapper's own radio presence: the uMiddle node joined to the piconet.
class BtAdapter final : public BtDevice {
 public:
  BtAdapter(BluetoothMedium& medium, const std::string& host)
      : BtDevice(medium, "uMiddle Adapter", /*class_of_device=*/0x020104, host) {}
};

class BtMapper final : public core::Mapper {
 public:
  BtMapper(BluetoothMedium& medium, const core::UsdlLibrary& library, BtCosts costs = {});

  void start(core::Runtime& runtime) override;
  void stop() override;
  /// Process death: the adapter falls off the piconet.
  void crash() override;

  // --- base-protocol support used by translators --------------------------------
  BluetoothMedium& medium() { return medium_; }
  const BtCosts& costs() const { return costs_; }
  BtAdapter& adapter() { return *adapter_; }
  std::uint16_t allocate_psm() { return next_psm_++; }

 private:
  void handle_device(const BtDeviceInfo& info);

  BluetoothMedium& medium_;
  BtCosts costs_;
  std::unique_ptr<BtAdapter> adapter_;
  std::vector<std::uint64_t> listener_tokens_;
  std::uint16_t next_psm_ = 0x1101;
};

/// Register the built-in USDL documents for the emulated Bluetooth devices
/// (BIP camera, BIP printer, HIDP mouse).
void register_bt_usdl(core::UsdlLibrary& library);

}  // namespace umiddle::bt
