// BIP — Bluetooth Basic Imaging Profile devices (the paper's running example:
// a BIP digital camera bridged to a UPnP MediaRenderer TV).
//
// The emulated camera is an OBEX Imaging Responder (UUID 0x111B): it serves
// its latest image via OBEX GET (type "x-bt/img-img") and *pushes* each new
// capture to a registered push target — registration is itself an OBEX PUT of
// type "x-bt/register-push" whose body is the target PSM (the uMiddle mapper
// registers its translator this way after import).
//
// The emulated printer is a Direct-Printing responder (UUID 0x1118): an OBEX
// PUT of an image "prints" it.
#pragma once

#include <optional>

#include "bluetooth/medium.hpp"
#include "bluetooth/obex.hpp"
#include "bluetooth/sdp.hpp"

namespace umiddle::bt {

inline const char* kUuidImagingResponder = "0x111B";
inline const char* kUuidDirectPrinting = "0x1118";
inline const char* kTypeImage = "x-bt/img-img";
inline const char* kTypeRegisterPush = "x-bt/register-push";

class BipCamera : public BtDevice {
 public:
  BipCamera(BluetoothMedium& medium, std::string name = "BIP Digital Camera");

  /// Take a picture: stores it as the current image and pushes it to the
  /// registered push target (if any) over OBEX.
  void shutter(Bytes image, std::string filename);

  bool has_push_target() const { return push_target_.has_value(); }

 protected:
  [[nodiscard]] Result<void> on_power_on() override;

 private:
  struct PushTarget {
    BtAddress address;
    std::uint16_t psm;
  };

  std::vector<SdpRecord> records_;
  obex::Server server_;
  obex::Object current_;
  std::optional<PushTarget> push_target_;
};

class BipPrinter : public BtDevice {
 public:
  BipPrinter(BluetoothMedium& medium, std::string name = "BIP Printer");

  struct Printed {
    std::string name;
    std::size_t bytes;
  };
  const std::vector<Printed>& printed() const { return printed_; }

 protected:
  [[nodiscard]] Result<void> on_power_on() override;

 private:
  std::vector<SdpRecord> records_;
  obex::Server server_;
  std::vector<Printed> printed_;
};

}  // namespace umiddle::bt
