#include "mediabroker/client.hpp"

#include "netsim/exchange.hpp"

namespace umiddle::mb {

MbClient::MbClient(net::Network& net, std::string host, net::Endpoint server)
    : net_(net), host_(std::move(host)), server_(std::move(server)) {}

MbClient::~MbClient() { close(); }

Result<void> MbClient::connect() {
  if (stream_ != nullptr) return ok_result();
  auto stream = net_.connect(host_, server_);
  if (!stream.ok()) return stream.error();
  stream_ = stream.value();
  stream_->on_connected(lifetime_.guard([this]() { connected_ = true; }));
  stream_->on_data(lifetime_.guard(net::frames<Reader>(*stream_, [this](Frame& frame) {
    switch (frame.op) {
      case Op::data:
        ++frames_received_;
        bytes_received_ += frame.payload.size();
        if (on_data_) on_data_(frame.stream, std::move(frame.payload));
        break;
      case Op::announce:
        if (on_announce_) on_announce_(frame.stream, frame.media_type, true);
        break;
      case Op::retire:
        if (on_announce_) on_announce_(frame.stream, {}, false);
        break;
      default:
        break;
    }
  })));
  stream_->on_close(lifetime_.guard([this]() { connected_ = false; }));
  return ok_result();
}

void MbClient::close() {
  if (stream_ != nullptr) stream_->close();
  stream_ = nullptr;
  connected_ = false;
}

Result<void> MbClient::send_wire(Bytes wire) {
  if (stream_ == nullptr) return make_error(Errc::disconnected, "mb: not connected");
  return stream_->send(std::move(wire));
}

Result<void> MbClient::produce(const std::string& stream, const std::string& media_type) {
  Frame f;
  f.op = Op::produce;
  f.stream = stream;
  f.media_type = media_type;
  return send_wire(f.encode());
}

Result<void> MbClient::send(std::string_view stream, std::span<const std::uint8_t> payload) {
  return send_wire(encode_data(stream, payload));
}

Result<void> MbClient::consume(const std::string& stream) {
  Frame f;
  f.op = Op::consume;
  f.stream = stream;
  return send_wire(f.encode());
}

Result<void> MbClient::retire(const std::string& stream) {
  Frame f;
  f.op = Op::retire;
  f.stream = stream;
  return send_wire(f.encode());
}

Result<void> MbClient::watch() {
  Frame f;
  f.op = Op::watch;
  // "*" = every stream. Appended, not assigned: GCC 12 under -fsanitize=address
  // reports a bogus -Wrestrict overlap for the inlined assignment of a literal.
  f.stream.push_back('*');
  return send_wire(f.encode());
}

std::size_t MbClient::backlog() const {
  return stream_ == nullptr ? 0 : stream_->pending();
}

void MbClient::on_drain(std::function<void()> fn) {
  if (stream_ != nullptr) stream_->on_drain(std::move(fn));
}

}  // namespace umiddle::mb
