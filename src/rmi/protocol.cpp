#include "rmi/protocol.hpp"

#include <utility>

#include "netsim/exchange.hpp"

namespace umiddle::rmi {
namespace {

constexpr const char* kMagic = "JRMI";
constexpr std::uint8_t kOpCall = 0x50;
constexpr std::uint8_t kOpReturn = 0x51;
constexpr std::uint8_t kOpException = 0x52;

}  // namespace

Bytes encode_call(const Call& call) {
  ByteWriter w;
  w.str(kMagic);
  w.u8(kOpCall);
  w.str16(call.object);
  w.str16(call.method);
  // Java-serialization class descriptors: deterministic filler that costs
  // real wire time in the simulation.
  w.u16(static_cast<std::uint16_t>(kSerializationOverhead));
  for (std::size_t i = 0; i < kSerializationOverhead; ++i) {
    w.u8(static_cast<std::uint8_t>(0x70 + (i % 16)));
  }
  w.u32(static_cast<std::uint32_t>(call.args.size()));
  w.bytes(call.args);
  return w.take();
}

Bytes encode_return(const Return& ret) {
  ByteWriter w;
  w.str(kMagic);
  w.u8(ret.exception ? kOpException : kOpReturn);
  w.u32(static_cast<std::uint32_t>(ret.value.size()));
  w.bytes(ret.value);
  return w.take();
}

Result<std::size_t> next_call(std::span<const std::uint8_t> buffer, std::vector<Call>& out) {
  if (buffer.size() < 5) return 0;
  ByteReader r(buffer);
  if (r.str(4) != kMagic) return make_error(Errc::protocol_error, "rmi: bad stream magic");
  if (r.u8() != kOpCall) return make_error(Errc::protocol_error, "rmi: expected call");
  Call call{r.str16(), r.str16(), {}};
  r.skip(r.u16());  // class descriptors
  call.args = r.bytes(r.u32());
  if (!r.ok()) return 0;  // partial
  out.push_back(std::move(call));
  return r.position();
}

Result<std::size_t> next_return(std::span<const std::uint8_t> buffer,
                                std::vector<Return>& out) {
  if (buffer.size() < 5) return 0;
  ByteReader r(buffer);
  if (r.str(4) != kMagic) return make_error(Errc::protocol_error, "rmi: bad stream magic");
  const std::uint8_t op = r.u8();
  if (op != kOpReturn && op != kOpException) {
    return make_error(Errc::protocol_error, "rmi: expected return");
  }
  Return ret{op == kOpException, r.bytes(r.u32())};
  if (!r.ok()) return 0;
  out.push_back(std::move(ret));
  return r.position();
}

Result<void> completed(const Result<Return>& r) {
  if (!r.ok()) return r.error();
  if (r.value().exception) return make_error(Errc::refused, umiddle::to_string(r.value().value));
  return ok_result();
}

// --- RmiConnection ------------------------------------------------------------------

RmiConnection::RmiConnection(net::StreamPtr stream) : stream_(std::move(stream)) {
  // `done` may release the last reference to this connection (its caller can
  // drop it), so the checks after it go through a token. A framing error
  // fails the call in flight.
  const sim::Lifetime::Token alive = lifetime_.token();
  stream_->on_data(lifetime_.guard(net::frames<ReturnReader>(
      *stream_,
      [this, alive](Return& ret) {
        if (!*alive) return;
        if (auto done = std::exchange(current_done_, nullptr)) done(std::move(ret));
      },
      [this, alive](const Error& error) {
        if (auto done = std::exchange(current_done_, nullptr)) done(error);
        if (*alive) stream_->close();
      })));
  stream_->on_close(lifetime_.guard([this]() {
    if (auto done = std::exchange(current_done_, nullptr)) {
      done(make_error(Errc::disconnected, "rmi: connection closed"));
    }
  }));
}

void RmiConnection::call(Call call, ReturnFn done) {
  if (current_done_) {
    done(make_error(Errc::refused, "rmi: a call is already outstanding"));
    return;
  }
  // A stream still connecting holds the bytes and sends them once it is up;
  // a closed one refuses them.
  if (auto sent = stream_->send(encode_call(call)); !sent.ok()) {
    done(sent.error());
    return;
  }
  current_done_ = std::move(done);
}

RmiConnection::~RmiConnection() {
  lifetime_.reset();  // close() runs the close handler synchronously: mute it first
  stream_->close();
}

void RmiConnection::close() { stream_->close(); }

// --- RmiObjectServer -------------------------------------------------------------------

RmiObjectServer::RmiObjectServer(net::Network& net, std::string host, std::uint16_t port)
    : net_(net), host_(std::move(host)), port_(port) {}

RmiObjectServer::~RmiObjectServer() { stop(); }

Result<void> RmiObjectServer::start() {
  if (started_) return ok_result();
  auto r = net_.listen({host_, port_}, [this](net::StreamPtr s) { serve(std::move(s)); });
  if (!r.ok()) return r;
  started_ = true;
  return ok_result();
}

void RmiObjectServer::stop() {
  if (!started_) return;
  net_.stop_listening({host_, port_});
  // close() fires close handlers synchronously, which mutate connections_;
  // detach the container before walking it.
  auto connections = std::move(connections_);
  connections_.clear();
  for (const net::StreamPtr& c : connections) c->close();
  started_ = false;
}

void RmiObjectServer::export_method(const std::string& object, const std::string& method,
                                    MethodFn fn) {
  methods_[{object, method}] = std::move(fn);
}

void RmiObjectServer::remove_object(const std::string& object) {
  std::erase_if(methods_, [&](const auto& entry) { return entry.first.first == object; });
}

void RmiObjectServer::serve(net::StreamPtr stream) {
  net::Stream* raw = stream.get();
  connections_.push_back(stream);
  stream->on_close([this, raw]() {
    std::erase_if(connections_, [raw](const net::StreamPtr& s) { return s.get() == raw; });
  });
  stream->on_data(net::frames<CallReader>(*raw, [this, raw](const Call& call) {
    ++calls_served_;
    auto method = methods_.find({call.object, call.method});
    Return ret;
    if (method == methods_.end()) {
      ret.exception = true;
      ret.value = to_bytes("NoSuchMethodException: " + call.object + "." + call.method);
    } else {
      auto result = method->second(call.args, raw->remote().host);
      if (result.ok()) {
        ret.value = std::move(result).take();
      } else {
        ret.exception = true;
        ret.value = to_bytes(result.error().to_string());
      }
    }
    (void)raw->send(encode_return(ret));
  }));
}

}  // namespace umiddle::rmi
