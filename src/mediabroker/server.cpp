#include "mediabroker/server.hpp"

#include <algorithm>

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
  // close() fires close handlers synchronously, which mutate connections_;
  // detach the container before walking it.
  auto connections = std::move(connections_);
  connections_.clear();
  for (auto& [raw, stream] : connections) stream->close();
  streams_.clear();
  watchers_.clear();
  started_ = false;
}

void MbServer::set_transform(const std::string& stream, Transform transform) {
  streams_[stream].transform = std::move(transform);
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
  std::erase(watchers_, conn);
  for (auto& [name, info] : streams_) {
    std::erase(info.consumers, conn);
    if (info.producer == conn) info.producer = nullptr;
  }
}

void MbServer::broadcast_watchers(const Frame& frame) {
  const PayloadPtr wire = make_payload(frame.encode());
  for (net::Stream* watcher : watchers_) (void)watcher->send(wire);
}

void MbServer::handle(net::Stream* conn, WireFrame& wire_frame) {
  const Frame& frame = wire_frame.head;
  switch (frame.op) {
    case Op::produce: {
      StreamInfo& info = streams_[frame.stream];
      // An unowned stream (new, or its producer dropped) is claimed; only its
      // producer retypes it.
      if (info.producer == nullptr) info.producer = conn;
      if (info.producer != conn) break;
      info.media_type = frame.media_type;
      Frame announce;
      announce.op = Op::announce;
      announce.stream = frame.stream;
      announce.media_type = frame.media_type;
      broadcast_watchers(announce);
      break;
    }
    case Op::consume: {
      StreamInfo& info = streams_[frame.stream];
      if (std::find(info.consumers.begin(), info.consumers.end(), conn) ==
          info.consumers.end()) {
        info.consumers.push_back(conn);
      }
      break;
    }
    case Op::data: {
      auto it = streams_.find(frame.stream);
      if (it == streams_.end() || it->second.producer != conn) break;  // not its producer
      const Transform& transform = it->second.transform;
      // One wire buffer, shared by every consumer's stream: the frame as it
      // arrived, or a frame of the transformed payload.
      const PayloadPtr wire =
          make_payload(transform ? encode_data(frame.stream, transform(wire_frame.payload()))
                                 : std::move(wire_frame.wire));
      for (net::Stream* consumer : it->second.consumers) {
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
      if (std::find(watchers_.begin(), watchers_.end(), conn) == watchers_.end()) {
        watchers_.push_back(conn);
      }
      // Replay existing streams to the watcher.
      for (const auto& [name, info] : streams_) {
        if (info.media_type.empty()) continue;
        Frame announce;
        announce.op = Op::announce;
        announce.stream = name;
        announce.media_type = info.media_type;
        (void)conn->send(announce.encode());
      }
      break;
    }
    case Op::retire: {
      auto it = streams_.find(frame.stream);
      if (it == streams_.end() || it->second.producer != conn) break;  // not its producer
      streams_.erase(it);
      Frame retire;
      retire.op = Op::retire;
      retire.stream = frame.stream;
      broadcast_watchers(retire);
      break;
    }
    case Op::announce:
      break;  // server-originated only
  }
}

}  // namespace umiddle::mb
