// The MediaBroker mapper and its generic translator.
//
// Discovery: the mapper WATCHes the broker; every announced stream whose media
// type has a USDL document (match key "mb:<media-type>") is imported.
//
// USDL binding kinds understood by this mapper:
//   kind="mb-consume" — the translator subscribes to the stream; arriving
//       frames are emitted from the binding's (output) port. Streaming: no
//       per-message handshake, which is why MB is the fast leg of Fig. 11.
//   kind="mb-produce" — input-port messages are published into the stream
//       under the uMiddle-side name "<stream>-out" (so native consumers can
//       subscribe to translated traffic without colliding with the original).
#pragma once

#include <memory>

#include "core/umiddle.hpp"
#include "mediabroker/client.hpp"

namespace umiddle::mb {

class MbMapper;

class MbTranslator final : public core::UsdlTranslator {
 public:
  MbTranslator(MbMapper& mapper, std::string stream, std::string media_type,
               const core::UsdlService& usdl);

  [[nodiscard]] Result<void> deliver(const std::string& port, const core::Message& msg) override;
  bool ready(const std::string& port) const override;
  void on_mapped() override;

  const std::string& stream() const { return stream_; }
  /// Name translated traffic is published under.
  std::string out_stream() const { return stream_ + "-out"; }

 private:
  void teardown() override;

  MbMapper& mapper_;
  std::string stream_;
  std::string media_type_;
  std::unique_ptr<MbClient> client_;
};

class MbMapper final : public core::Mapper {
 public:
  MbMapper(net::Endpoint server, const core::UsdlLibrary& library);

  void start(core::Runtime& runtime) override;
  void stop() override;

  const net::Endpoint& server() const { return server_; }

 private:
  void handle_announce(const std::string& stream, const std::string& media_type, bool alive);

  net::Endpoint server_;
  std::unique_ptr<MbClient> watcher_;
};

/// Register built-in USDL documents for common MB media types
/// (octet-stream and jpeg streams).
void register_mb_usdl(core::UsdlLibrary& library);

}  // namespace umiddle::mb
