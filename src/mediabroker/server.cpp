#include "mediabroker/server.hpp"

#include "netsim/exchange.hpp"

namespace umiddle::mb {

MbServer::MbServer(net::Network& net, std::string host, std::uint16_t port)
    : net_(net), host_(std::move(host)), port_(port) {}

MbServer::~MbServer() { stop(); }

Result<void> MbServer::start() {
  if (started_) return ok_result();
  auto r = net_.listen({host_, port_}, [this](net::StreamPtr s) { serve(std::move(s)); });
  if (!r.ok()) return r;
  started_ = true;
  return ok_result();
}

void MbServer::stop() {
  if (!started_) return;
  net_.stop_listening({host_, port_});
  // Forget every registration first, so the close handlers below retire
  // nothing: a stopping broker broadcasts nothing.
  streams_.clear();
  watchers_.clear();
  fanout_.clear();
  // close() fires close handlers synchronously, which mutate connections_;
  // detach the container before walking it.
  auto connections = std::move(connections_);
  connections_.clear();
  for (auto& [raw, stream] : connections) stream->close();
  started_ = false;
}

void MbServer::set_transform(const std::string& stream, Transform transform) {
  fanout_[stream].transform = std::move(transform);
}

void MbServer::serve(net::StreamPtr stream) {
  net::Stream* raw = stream.get();
  connections_[raw] = stream;
  stream->on_data(
      net::frames<WireReader>(*raw, [this, raw](WireFrame& frame) { handle(raw, frame); }));
  stream->on_close([this, raw]() { drop_connection(raw); });
}

void MbServer::drop_connection(net::Stream* conn) {
  connections_.erase(conn);
  watchers_.drop_owner(conn);
  for (auto& [name, fanout] : fanout_) fanout.consumers.drop_owner(conn);
  for (const auto& [name, media_type] : streams_.drop_owner(conn)) retired(name);
}

void MbServer::retired(const std::string& stream) {
  fanout_.erase(stream);
  Frame retire;
  retire.op = Op::retire;
  retire.stream = stream;
  broadcast_watchers(retire);
}

void MbServer::broadcast_watchers(const Frame& frame) {
  const PayloadPtr wire = make_payload(frame.encode());
  for (const auto& [id, watcher] : watchers_) (void)watcher.owner->send(wire);
}

void MbServer::handle(net::Stream* conn, WireFrame& wire_frame) {
  const Frame& frame = wire_frame.head;
  switch (frame.op) {
    case Op::produce: {
      // A new stream is claimed; only its producer retypes it.
      if (!streams_.add(frame.stream, conn, frame.media_type)) break;
      Frame announce;
      announce.op = Op::announce;
      announce.stream = frame.stream;
      announce.media_type = frame.media_type;
      broadcast_watchers(announce);
      break;
    }
    case Op::consume:
      fanout_[frame.stream].consumers.add(conn->id(), conn);
      break;
    case Op::data: {
      const auto* producer = streams_.find(frame.stream);
      if (producer == nullptr || producer->owner != conn) break;  // not its producer
      auto fanout = fanout_.find(frame.stream);
      if (fanout == fanout_.end()) break;
      const Transform& transform = fanout->second.transform;
      // One wire buffer, shared by every consumer's stream: the frame as it
      // arrived, or a frame of the transformed payload.
      const PayloadPtr wire =
          make_payload(transform ? encode_data(frame.stream, transform(wire_frame.payload()))
                                 : std::move(wire_frame.wire));
      for (const auto& [id, registration] : fanout->second.consumers) {
        net::Stream* consumer = registration.owner;
        if (consumer == conn) continue;  // never echo to the producer itself
        if (consumer->pending() > kConsumerBacklogLimit) {
          ++frames_dropped_;  // shed load on slow consumers, never buffer forever
          continue;
        }
        (void)consumer->send(wire);
        ++frames_forwarded_;
      }
      break;
    }
    case Op::watch: {
      watchers_.add(conn->id(), conn);
      // Replay existing streams to the watcher.
      for (const auto& [name, producer] : streams_) {
        Frame announce;
        announce.op = Op::announce;
        announce.stream = name;
        announce.media_type = producer.value;
        (void)conn->send(announce.encode());
      }
      break;
    }
    case Op::retire:
      if (streams_.remove(frame.stream, conn)) retired(frame.stream);  // else not its producer
      break;
    case Op::announce:
      break;  // server-originated only
  }
}

}  // namespace umiddle::mb
