// MediaBroker client: one connection multiplexing produce/consume/watch.
#pragma once

#include <functional>
#include <map>

#include "mediabroker/server.hpp"
#include "sim/timer.hpp"

namespace umiddle::mb {

class MbClient {
 public:
  /// Takes the decoded payload: its bytes move on instead of being copied.
  using DataFn = std::function<void(const std::string& stream, Bytes payload)>;
  using AnnounceFn = std::function<void(const std::string& stream,
                                        const std::string& media_type, bool alive)>;

  MbClient(net::Network& net, std::string host, net::Endpoint server);
  ~MbClient();
  MbClient(const MbClient&) = delete;
  MbClient& operator=(const MbClient&) = delete;

  [[nodiscard]] Result<void> connect();
  void close();
  bool connected() const { return connected_; }

  /// Declare a producer for `stream`.
  [[nodiscard]] Result<void> produce(const std::string& stream, const std::string& media_type);
  /// Publish one media frame (streaming: no per-frame acknowledgement). The
  /// frame is encoded straight from `payload`.
  [[nodiscard]] Result<void> send(std::string_view stream, std::span<const std::uint8_t> payload);
  /// Subscribe; `on_data` fires per arriving frame.
  [[nodiscard]] Result<void> consume(const std::string& stream);
  /// Withdraw a produced stream.
  [[nodiscard]] Result<void> retire(const std::string& stream);
  /// Watch stream announcements (mapper discovery).
  [[nodiscard]] Result<void> watch();

  void on_data(DataFn fn) { on_data_ = std::move(fn); }
  void on_announce(AnnounceFn fn) { on_announce_ = std::move(fn); }
  /// Fires when the connection's local send backlog drains to empty.
  void on_drain(std::function<void()> fn);

  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  /// Bytes accepted for transmission but not yet on the wire (send pacing).
  std::size_t backlog() const;

 private:
  [[nodiscard]] Result<void> send_wire(Bytes wire);

  net::Network& net_;
  std::string host_;
  net::Endpoint server_;
  net::StreamPtr stream_;
  bool connected_ = false;
  DataFn on_data_;
  AnnounceFn on_announce_;
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  /// Guards the stream handlers: a closed stream's close handler runs after
  /// its queued bytes drain, possibly after this client is destroyed.
  sim::Lifetime lifetime_;
};

}  // namespace umiddle::mb
