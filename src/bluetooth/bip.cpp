#include "bluetooth/bip.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

namespace umiddle::bt {

// --- BipCamera --------------------------------------------------------------------

BipCamera::BipCamera(BluetoothMedium& medium, std::string name)
    : BtDevice(medium, std::move(name), /*class_of_device=*/0x000614 /* imaging */),
      server_(
          [this](const obex::Object& object) {
            // Push-target registration arrives as an OBEX PUT.
            if (object.type == kTypeRegisterPush) {
              std::uint64_t psm = 0;
              std::uint64_t addr = 0;
              auto parts = strings::split(umiddle::to_string(object.data), ':');
              if (parts.size() == 2 && strings::parse_u64(parts[0], addr) &&
                  strings::parse_u64(parts[1], psm) && psm != 0) {
                push_target_ = PushTarget{addr, static_cast<std::uint16_t>(psm)};
              }
              return;
            }
            log::Entry(log::Level::debug, "bip") << "camera ignoring PUT of " << object.type;
          },
          [this](const std::string& type, const std::string&) -> Result<obex::Object> {
            if (type != kTypeImage || current_.data.empty()) {
              return make_error(Errc::not_found, "no image");
            }
            return current_;
          }) {
  records_.push_back(SdpRecord{1, kUuidImagingResponder, "Imaging Responder",
                               kPsmObexBip, "BIP"});
}

Result<void> BipCamera::on_power_on() {
  if (auto r = start_sdp_server(*this, &records_); !r.ok()) return r;
  return listen_psm(kPsmObexBip,
                    [this](net::StreamPtr stream) { server_.attach(std::move(stream)); });
}

void BipCamera::shutter(Bytes image, std::string filename) {
  current_ = obex::Object{std::move(filename), kTypeImage, std::move(image)};
  if (!push_target_ || !powered()) return;
  auto stream = medium().l2cap_connect(host(), push_target_->address, push_target_->psm);
  obex::Client::put(std::move(stream), current_, [](Result<void> r) {
    if (!r.ok()) {
      log::Entry(log::Level::warn, "bip") << "push PUT failed: " << r.error().to_string();
    }
  });
}

// --- BipPrinter --------------------------------------------------------------------

BipPrinter::BipPrinter(BluetoothMedium& medium, std::string name)
    : BtDevice(medium, std::move(name), /*class_of_device=*/0x000680 /* imaging/printer */),
      server_(
          [this](const obex::Object& object) {
            if (object.type != kTypeImage) return;
            printed_.push_back(Printed{object.name, object.data.size()});
          },
          nullptr) {
  records_.push_back(SdpRecord{1, kUuidDirectPrinting, "Direct Printing",
                               kPsmObexBip, "BIP"});
}

Result<void> BipPrinter::on_power_on() {
  if (auto r = start_sdp_server(*this, &records_); !r.ok()) return r;
  return listen_psm(kPsmObexBip,
                    [this](net::StreamPtr stream) { server_.attach(std::move(stream)); });
}

}  // namespace umiddle::bt
