// TCP-like reliable byte stream over a simulated segment.
//
// Model (documented simplifications, see DESIGN.md §4):
//   * connection setup costs 1.5 RTT (SYN, SYN-ACK, ACK) before on_connected fires;
//   * sent bytes are cut into MTU-payload-sized frames, each charged full framing
//     overhead plus medium serialization; delivery is in-order and lossless
//     (retransmission is abstracted as the segment treating stream frames as
//     lossless — throughput effects of loss are out of the paper's scope);
//   * there is no congestion/flow window: LAN-scale paths are serialization-bound,
//     and the RTT-boundness the paper observes for RMI comes from the RMI
//     protocol's synchronous call structure, which we do model.
#pragma once

#include <deque>
#include <functional>

#include "netsim/network.hpp"

namespace umiddle::net {

class Stream : public std::enable_shared_from_this<Stream> {
 public:
  using DataHandler = std::function<void(std::span<const std::uint8_t>)>;
  using VoidHandler = std::function<void()>;

  /// Streams are created by Network::connect / the accept path only.
  struct Private {};
  Stream(Private, Network& net, StreamId id, Endpoint local, Endpoint remote, HostId host,
         HostId remote_host, SegmentId segment);

  StreamId id() const { return id_; }
  /// The other end of the connection. Used as the side-band baggage channel key
  /// for trace propagation (obs/trace.hpp): a server-side stream's peer is the
  /// client stream the sender staged on.
  StreamId peer() const { return peer_; }
  const Endpoint& local() const { return local_; }
  const Endpoint& remote() const { return remote_; }
  bool connected() const { return state_ == State::established; }
  bool closed() const { return state_ == State::closed; }
  /// True if the stream was torn down by the fault plane (partition, crash, or
  /// targeted reset) rather than a graceful close. Protocol layers key their
  /// reconnect logic off this, so graceful shutdowns never trigger recovery.
  bool was_reset() const { return reset_; }

  void on_connected(VoidHandler h) { on_connected_ = std::move(h); }
  void on_data(DataHandler h) { on_data_ = std::move(h); }
  /// Close handlers accumulate: each registered handler fires once when the
  /// peer closes (protocol layers and link accounting can both observe it).
  void on_close(VoidHandler h) { on_close_.push_back(std::move(h)); }
  /// Invoked whenever the send queue drains to empty (all bytes handed to the
  /// medium). Lets callers pace writes instead of buffering unboundedly.
  void on_drain(VoidHandler h) { on_drain_ = std::move(h); }

  /// Bytes accepted by send() but not yet serialized onto the medium.
  std::size_t pending() const { return queued_bytes_; }

  /// Immediately release all handlers (teardown only — must not be called
  /// from within a handler).
  void drop_handlers();

  /// Queue bytes for transmission. Fails once closing/closed.
  [[nodiscard]] Result<void> send(Bytes payload);
  [[nodiscard]] Result<void> send(std::string_view payload);
  /// Copy-free send: the stream references the shared buffer while framing;
  /// frames that fall inside one buffer go onto the medium without any copy.
  [[nodiscard]] Result<void> send(PayloadPtr payload);

  /// Flush pending bytes then close both directions; peer sees on_close.
  void close();

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class Network;
  friend class FaultPlane;
  enum class State { connecting, established, closing, closed };

  /// One send() buffer awaiting transmission; offset marks how much of it has
  /// already been framed onto the medium.
  struct Chunk {
    PayloadPtr data;
    std::size_t offset = 0;
  };

  void set_peer(StreamId peer) { peer_ = peer; }
  void establish();
  /// Fault-plane teardown: discard queued bytes and die without a FIN. With
  /// `notify_handlers` the close handlers fire (a live peer observing an
  /// abort); without, they are suppressed (the dead process's own end).
  void abort(bool notify_handlers);
  void pump();  ///< drain send queue into frames
  void deliver(const Bytes& data, std::size_t offset, std::size_t len);
  void peer_closed();
  void finish_close();
  void fire_close_handlers();
  void release_handlers_soon();

  Network& net_;
  StreamId id_;
  StreamId peer_;
  Endpoint local_;
  Endpoint remote_;
  HostId host_;
  HostId remote_host_;
  SegmentId segment_;
  /// Cached per connection so framing never looks up the host or segment.
  std::uint64_t trace_id_;  ///< sim::host_id(local_.host)
  const SegmentSpec* spec_;  ///< segments are never removed, so this stays valid
  State state_ = State::connecting;
  std::deque<Chunk> send_queue_;
  /// Total unsent bytes across send_queue_ (chunk sizes minus offsets).
  std::size_t queued_bytes_ = 0;
  bool pumping_ = false;
  bool close_after_drain_ = false;
  bool close_handlers_fired_ = false;
  bool reset_ = false;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t segments_received_ = 0;
  VoidHandler on_connected_;
  DataHandler on_data_;
  std::vector<VoidHandler> on_close_;
  VoidHandler on_drain_;
};

}  // namespace umiddle::net
