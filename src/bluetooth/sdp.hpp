// SDP — Bluetooth Service Discovery Protocol (paper §2.1: "Bluetooth uses
// Service Discovery Protocol (SDP)").
//
// Binary PDUs over an L2CAP channel on PSM 0x0001:
//   ServiceSearchAttributeRequest (0x06): tx-id u16, uuid str16 ("*" = all)
//   ServiceSearchAttributeResponse (0x07): tx-id u16, count u16, records
//   ErrorResponse (0x01): tx-id u16, error code u16
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bluetooth/medium.hpp"
#include "common/frame_reader.hpp"

namespace umiddle::bt {

/// One service record: what a device offers and on which PSM.
struct SdpRecord {
  std::uint32_t handle = 0;
  std::string service_uuid;  ///< e.g. "0x111B" (Imaging Responder)
  std::string name;          ///< e.g. "BIP Imaging"
  std::uint16_t psm = 0;     ///< L2CAP PSM of the service
  std::string profile;       ///< e.g. "BIP", "HID"

  void encode(ByteWriter& w) const;
  /// Reads one record; check r.ok() before using it.
  static SdpRecord decode(ByteReader& r);
};

// PDU ids.
constexpr std::uint8_t kSdpError = 0x01;
constexpr std::uint8_t kSdpSearchRequest = 0x06;
constexpr std::uint8_t kSdpSearchResponse = 0x07;

/// A ServiceSearchAttributeRequest. Any other PDU id is still a request frame,
/// header only, which the server answers with an ErrorResponse.
struct SdpRequest {
  std::uint8_t pdu = kSdpSearchRequest;
  std::uint16_t tx = 0;
  std::string uuid;  ///< search requests only

  Bytes encode() const;
};

/// A ServiceSearchAttributeResponse or an ErrorResponse.
struct SdpResponse {
  std::uint8_t pdu = kSdpSearchResponse;
  std::uint16_t tx = 0;
  std::uint16_t error = 0;           ///< ErrorResponse only
  std::vector<SdpRecord> records;    ///< search responses only

  Bytes encode() const;
};

/// Decode steps for the request (server side) or response (client side) at
/// the front of a receive buffer. A response PDU of another id is malformed.
[[nodiscard]] Result<std::size_t> next_request(std::span<const std::uint8_t> buffer,
                                               std::vector<SdpRequest>& out);
[[nodiscard]] Result<std::size_t> next_response(std::span<const std::uint8_t> buffer,
                                                std::vector<SdpResponse>& out);

using SdpRequestReader = FrameReader<SdpRequest, next_request>;
using SdpResponseReader = FrameReader<SdpResponse, next_response>;

/// Attach an SDP responder for `records` to a device (PSM 0x0001).
/// The records vector must outlive the registration (owned by the device).
[[nodiscard]] Result<void> start_sdp_server(BtDevice& device, const std::vector<SdpRecord>* records);

/// Query a remote device's records matching `uuid` ("*" for all), as one
/// net::Exchange. Charges the SDP round trip over the radio.
using SdpQueryFn = std::function<void(Result<std::vector<SdpRecord>>)>;
void sdp_query(BluetoothMedium& medium, const std::string& from_host, BtAddress device,
               const std::string& uuid, SdpQueryFn done);

}  // namespace umiddle::bt
