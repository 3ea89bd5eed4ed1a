#include "mediabroker/mapper.hpp"

#include "common/log.hpp"

namespace umiddle::mb {
namespace {

constexpr const char* kOctetUsdl = R"USDL(
<usdl version="1">
  <service platform="mb" match="mb:application/octet-stream" name="MediaBroker Stream">
    <shape>
      <digital-port name="media-out" direction="output" mime="application/octet-stream"/>
      <digital-port name="media-in" direction="input" mime="application/octet-stream"/>
    </shape>
    <bindings>
      <binding port="media-out" kind="mb-consume"><native/></binding>
      <binding port="media-in" kind="mb-produce"><native/></binding>
    </bindings>
  </service>
</usdl>)USDL";

constexpr const char* kJpegUsdl = R"USDL(
<usdl version="1">
  <service platform="mb" match="mb:image/jpeg" name="MediaBroker Image Stream">
    <shape>
      <digital-port name="media-out" direction="output" mime="image/jpeg"/>
      <digital-port name="media-in" direction="input" mime="image/jpeg"/>
    </shape>
    <bindings>
      <binding port="media-out" kind="mb-consume"><native/></binding>
      <binding port="media-in" kind="mb-produce"><native/></binding>
    </bindings>
  </service>
</usdl>)USDL";

/// Pause sends into the broker while this much is still queued locally.
constexpr std::size_t kProduceBacklogLimit = 32 * 1024;

}  // namespace

// --- MbTranslator ------------------------------------------------------------------

MbTranslator::MbTranslator(MbMapper& mapper, std::string stream, std::string media_type,
                           const core::UsdlService& usdl)
    : UsdlTranslator("MB " + stream, usdl), mapper_(mapper), stream_(std::move(stream)),
      media_type_(std::move(media_type)) {}

void MbTranslator::on_mapped() {
  client_ = std::make_unique<MbClient>(mapper_.runtime().network(),
                                       mapper_.runtime().host(), mapper_.server());
  if (auto r = client_->connect(); !r.ok()) {
    log::Entry(log::Level::warn, "mb") << "translator connect failed: "
                                       << r.error().to_string();
    client_ = nullptr;
    return;
  }
  // Backpressure handshake with the transport: once our produce backlog
  // drains, paths feeding media-in may resume.
  client_->on_drain(lifetime().guard([this]() { notify_ready(); }));
  for (const core::UsdlBinding& b : usdl().bindings) {
    if (b.kind == "mb-consume") {
      (void)client_->consume(stream_);
      std::string port = b.port;
      client_->on_data(lifetime().guard([this, port](const std::string&, Bytes data) {
        core::Message msg;
        msg.payload = std::move(data);
        (void)emit_typed(port, std::move(msg));
      }));
    }
    if (b.kind == "mb-produce") {
      (void)client_->produce(out_stream(), media_type_);
    }
  }
}

void MbTranslator::teardown() {
  if (client_) {
    (void)client_->retire(out_stream());
    client_->close();
  }
  client_ = nullptr;
}

bool MbTranslator::ready(const std::string&) const {
  return client_ != nullptr && client_->backlog() < kProduceBacklogLimit;
}

Result<void> MbTranslator::deliver(const std::string& port, const core::Message& msg) {
  if (client_ == nullptr) return make_error(Errc::disconnected, "mb: no broker connection");
  if (find_binding("mb-produce", port) == nullptr) {
    return make_error(Errc::unsupported, "no produce binding for port " + port);
  }
  return client_->send(out_stream(), msg.payload);
}

// --- MbMapper ------------------------------------------------------------------------

MbMapper::MbMapper(net::Endpoint server, const core::UsdlLibrary& library)
    : Mapper("mb", library), server_(std::move(server)) {}

void MbMapper::start(core::Runtime& runtime) {
  watcher_ = std::make_unique<MbClient>(runtime.network(), runtime.host(), server_);
  watcher_->on_announce([this](const std::string& stream, const std::string& type,
                               bool alive) { handle_announce(stream, type, alive); });
  if (auto r = watcher_->connect(); !r.ok()) {
    log::Entry(log::Level::error, "mb") << "watcher connect failed: " << r.error().to_string();
    return;
  }
  (void)watcher_->watch();
}

void MbMapper::stop() {
  if (watcher_) watcher_->close();
}

void MbMapper::handle_announce(const std::string& stream, const std::string& media_type,
                               bool alive) {
  if (!alive) {
    gone(stream);
    return;
  }
  if (find(stream) != nullptr) return;
  if (stream.size() > 4 && stream.rfind("-out") == stream.size() - 4) return;  // our own
  const core::UsdlService* usdl = this->usdl("mb:" + media_type);
  if (usdl == nullptr) {
    log::Entry(log::Level::info, "mb") << "no USDL for media type " << media_type;
    return;
  }
  import(stream, std::make_unique<MbTranslator>(*this, stream, media_type, *usdl));
}

void register_mb_usdl(core::UsdlLibrary& library) {
  for (const char* doc : {kOctetUsdl, kJpegUsdl}) {
    if (auto r = library.add_text(doc); !r.ok()) std::abort();
  }
}

}  // namespace umiddle::mb
