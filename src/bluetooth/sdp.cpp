#include "bluetooth/sdp.hpp"

#include "netsim/exchange.hpp"

namespace umiddle::bt {

void SdpRecord::encode(ByteWriter& w) const {
  w.u32(handle);
  w.str16(service_uuid);
  w.str16(name);
  w.u16(psm);
  w.str16(profile);
}

SdpRecord SdpRecord::decode(ByteReader& r) {
  return SdpRecord{r.u32(), r.str16(), r.str16(), r.u16(), r.str16()};
}

Bytes SdpRequest::encode() const {
  ByteWriter w;
  w.u8(pdu);
  w.u16(tx);
  if (pdu == kSdpSearchRequest) w.str16(uuid);
  return w.take();
}

Bytes SdpResponse::encode() const {
  ByteWriter w;
  w.u8(pdu);
  w.u16(tx);
  if (pdu == kSdpError) {
    w.u16(error);
  } else {
    w.u16(static_cast<std::uint16_t>(records.size()));
    for (const SdpRecord& rec : records) rec.encode(w);
  }
  return w.take();
}

Result<std::size_t> next_request(std::span<const std::uint8_t> buffer,
                                 std::vector<SdpRequest>& out) {
  ByteReader r(buffer);
  SdpRequest req{r.u8(), r.u16(), {}};
  if (!r.ok()) return 0;  // wait for more bytes
  if (req.pdu == kSdpSearchRequest) req.uuid = r.str16();
  if (!r.ok()) return 0;
  out.push_back(std::move(req));
  return r.position();
}

Result<std::size_t> next_response(std::span<const std::uint8_t> buffer,
                                  std::vector<SdpResponse>& out) {
  ByteReader r(buffer);
  SdpResponse resp{r.u8(), r.u16(), 0, {}};
  if (!r.ok()) return 0;
  if (resp.pdu == kSdpError) {
    resp.error = r.u16();
  } else if (resp.pdu == kSdpSearchResponse) {
    const std::uint16_t count = r.u16();
    for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
      resp.records.push_back(SdpRecord::decode(r));
    }
  } else {
    return make_error(Errc::protocol_error, "sdp unexpected response");
  }
  if (!r.ok()) return 0;  // partial frame; wait for the rest
  out.push_back(std::move(resp));
  return r.position();
}

Result<void> start_sdp_server(BtDevice& device, const std::vector<SdpRecord>* records) {
  return device.listen_psm(kPsmSdp, [records](net::StreamPtr stream) {
    stream->on_data(net::frames<SdpRequestReader>(
        *stream, [records, keep = stream](const SdpRequest& req) {
          SdpResponse resp{kSdpSearchResponse, req.tx, 0, {}};
          if (req.pdu != kSdpSearchRequest) {
            resp.pdu = kSdpError;
            resp.error = 0x0003;  // invalid request syntax
          } else {
            for (const SdpRecord& rec : *records) {
              if (req.uuid == "*" || rec.service_uuid == req.uuid) resp.records.push_back(rec);
            }
          }
          (void)keep->send(resp.encode());
          keep->close();
        }));
  });
}

void sdp_query(BluetoothMedium& medium, const std::string& from_host, BtAddress device,
               const std::string& uuid, SdpQueryFn done) {
  using Exchange = net::Exchange<std::vector<SdpRecord>>;
  auto stream = medium.l2cap_connect(from_host, device, kPsmSdp);
  // Transaction id derived from the (per-world) stream id: it only has to match
  // request to response on this stream, and unlike a process-global counter it
  // is identical across repeated same-seed runs.
  const auto tx = static_cast<std::uint16_t>(stream.ok() ? stream.value()->id().value() : 0);
  Exchange::run<SdpResponseReader>(
      std::move(stream), make_payload(SdpRequest{kSdpSearchRequest, tx, uuid}.encode()),
      [tx](net::Stream&, SdpResponse& resp) -> Exchange::Reply {
        if (resp.pdu == kSdpError) return make_error(Errc::protocol_error, "sdp error response");
        if (resp.tx != tx) return make_error(Errc::protocol_error, "sdp unexpected response");
        return std::move(resp.records);
      },
      std::move(done));
}

}  // namespace umiddle::bt
