// The MediaBroker server: stream registry, fan-out, and in-line media
// transformation.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "core/registrations.hpp"
#include "mediabroker/protocol.hpp"
#include "netsim/stream.hpp"

namespace umiddle::mb {

constexpr std::uint16_t kMbPort = 5060;

class MbServer {
 public:
  /// Optional per-stream transformation applied to every DATA frame's payload.
  using Transform = std::function<Bytes(std::span<const std::uint8_t>)>;

  MbServer(net::Network& net, std::string host, std::uint16_t port = kMbPort);
  ~MbServer();
  MbServer(const MbServer&) = delete;
  MbServer& operator=(const MbServer&) = delete;

  [[nodiscard]] Result<void> start();
  void stop();

  /// Install a transformation for a stream (MediaBroker's signature feature).
  void set_transform(const std::string& stream, Transform transform);

  std::size_t stream_count() const { return streams_.size(); }
  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  /// Frames not forwarded because a consumer's connection was backed up
  /// (media brokers shed load on slow consumers rather than buffer forever).
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  net::Endpoint endpoint() const { return {host_, port_}; }

  /// Per-consumer backlog beyond which DATA frames are shed.
  static constexpr std::size_t kConsumerBacklogLimit = 256 * 1024;

 private:
  /// A stream's consumers and transformation, kept apart from its producer's
  /// registration: a consumer may subscribe, and a transformation be set,
  /// before the stream is produced.
  struct Fanout {
    core::Registrations<StreamId, net::Stream*> consumers;
    Transform transform;
  };

  void serve(net::StreamPtr stream);
  void handle(net::Stream* conn, WireFrame& frame);
  /// A connection closed: drop its registrations. A producer's streams are
  /// retired, as its RETIRE would.
  void drop_connection(net::Stream* conn);
  /// Forget a retired stream's consumers and tell the watchers.
  void retired(const std::string& stream);
  void broadcast_watchers(const Frame& frame);

  net::Network& net_;
  std::string host_;
  std::uint16_t port_;
  bool started_ = false;
  /// Stream name → the connection whose PRODUCE claimed it (the only one that
  /// may retype, feed or RETIRE it) and its media type.
  core::Registrations<std::string, net::Stream*, std::string> streams_;
  core::Registrations<StreamId, net::Stream*> watchers_;
  std::map<std::string, Fanout> fanout_;
  std::map<net::Stream*, net::StreamPtr> connections_;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace umiddle::mb
