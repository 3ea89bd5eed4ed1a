#include "netsim/stream.hpp"

#include <algorithm>

namespace umiddle::net {

Stream::Stream(Private, Network& net, StreamId id, Endpoint local, Endpoint remote, HostId host,
               HostId remote_host, SegmentId segment)
    : net_(net), id_(id), local_(std::move(local)), remote_(std::move(remote)), host_(host),
      remote_host_(remote_host), segment_(segment), trace_id_(net.hosts_[host].trace_id),
      spec_(&net.spec(segment)) {}

void Stream::establish() {
  if (state_ != State::connecting) return;
  state_ = State::established;
  if (on_connected_) on_connected_();
  if (queued_bytes_ != 0) pump();
}

Result<void> Stream::send(Bytes payload) { return send(make_payload(std::move(payload))); }

Result<void> Stream::send(std::string_view payload) {
  return send(Bytes(payload.begin(), payload.end()));
}

Result<void> Stream::send(PayloadPtr payload) {
  if (state_ == State::closing || state_ == State::closed) {
    return make_error(Errc::disconnected, "stream closed");
  }
  if (payload == nullptr || payload->empty()) return ok_result();  // nothing to queue
  queued_bytes_ += payload->size();
  net_.note_stream_backlog(queued_bytes_);
  send_queue_.push_back(Chunk{std::move(payload), 0});
  if (state_ == State::established) pump();
  return ok_result();
}

void Stream::pump() {
  if (pumping_ || queued_bytes_ == 0) {
    if (queued_bytes_ == 0 && close_after_drain_ && state_ != State::closed) finish_close();
    return;
  }
  pumping_ = true;

  // Frame size is min(total queued bytes, MSS) — over the *total*, exactly as
  // the byte-queue implementation chunked, so the frame sequence (and with it
  // every wire timing) is independent of how sends were batched into buffers.
  const std::size_t mss = spec_->mtu_payload;
  const std::size_t chunk_size = std::min(queued_bytes_, mss);

  PayloadPtr frame;
  std::size_t frame_offset = 0;
  if (Chunk& front = send_queue_.front(); front.data->size() - front.offset >= chunk_size) {
    // Fast path: the frame lies inside one send() buffer — reference it.
    frame = front.data;
    frame_offset = front.offset;
    front.offset += chunk_size;
    if (front.offset == front.data->size()) send_queue_.pop_front();
  } else {
    // The frame spans send() boundaries: materialize one combined buffer.
    Bytes merged;
    merged.reserve(chunk_size);
    std::size_t need = chunk_size;
    while (need > 0) {
      Chunk& c = send_queue_.front();
      const std::size_t take = std::min(need, c.data->size() - c.offset);
      merged.insert(merged.end(), c.data->begin() + static_cast<std::ptrdiff_t>(c.offset),
                    c.data->begin() + static_cast<std::ptrdiff_t>(c.offset + take));
      c.offset += take;
      need -= take;
      if (c.offset == c.data->size()) send_queue_.pop_front();
    }
    frame = make_payload(std::move(merged));
  }
  queued_bytes_ -= chunk_size;
  bytes_sent_ += chunk_size;

  auto self = shared_from_this();
  StreamId peer = peer_;
  sim::TimePoint arrival = net_.send_frame(
      segment_, host_, chunk_size,
      [this, self, peer, frame, frame_offset, chunk_size]() {
        if (Stream* p = net_.stream(peer); p != nullptr) {
          p->deliver(*frame, frame_offset, chunk_size);
        }
      },
      /*lossless=*/true);

  // The next frame may start only once this one has finished transmitting —
  // this is the NIC-level backpressure that keeps pending() an honest measure
  // of the local send backlog (and keeps the event heap bounded).
  sim::TimePoint tx_end = arrival - spec_->latency;
  net_.scheduler().schedule_at(
      tx_end,
      [this, self]() {
        pumping_ = false;
        if (queued_bytes_ == 0 && on_drain_ && state_ == State::established) on_drain_();
        pump();
      },
      {trace_id_, sim::tag_id("net.stream.pump")});
}

void Stream::deliver(const Bytes& data, std::size_t offset, std::size_t len) {
  if (state_ == State::closed) return;
  bytes_received_ += len;
  // Delayed ACK: every second data segment, the receiver transmits a
  // payload-free acknowledgement frame. On a half-duplex medium this contends
  // with the sender's data — the effect that pulls real TCP on a 10 Mbps hub
  // down to the high-7 Mbps range (the paper's baseline).
  if (++segments_received_ % 2 == 0) {
    net_.send_frame(segment_, host_, 0, []() {}, /*lossless=*/true);
  }
  if (on_data_) on_data_(std::span<const std::uint8_t>(data.data() + offset, len));
}

void Stream::close() {
  if (state_ == State::closed || close_after_drain_) return;
  close_after_drain_ = true;
  if (state_ == State::connecting) {
    // Never established: drop immediately.
    finish_close();
    return;
  }
  state_ = State::closing;
  if (queued_bytes_ == 0 && !pumping_) finish_close();
}

void Stream::finish_close() {
  if (state_ == State::closed) return;
  state_ = State::closed;
  fire_close_handlers();  // local close: handlers (e.g. link accounting) run once
  auto self = shared_from_this();
  StreamId peer = peer_;
  // The FIN travels as a (payload-free) frame so it serializes on the medium
  // behind any data frames still in flight and never overtakes them.
  net_.send_frame(
      segment_, host_, 0,
      [this, self, peer]() {
        if (Stream* p = net_.stream(peer); p != nullptr) p->peer_closed();
        net_.forget_stream(id_);
      },
      /*lossless=*/true);
  release_handlers_soon();
}

void Stream::peer_closed() {
  if (state_ == State::closed) return;
  state_ = State::closed;
  fire_close_handlers();
  auto self = shared_from_this();
  net_.scheduler().post([this, self]() { net_.forget_stream(id_); },
                        {trace_id_, sim::tag_id("net.stream.forget")});
  release_handlers_soon();
}

void Stream::abort(bool notify_handlers) {
  if (state_ == State::closed) return;
  reset_ = true;
  state_ = State::closed;
  send_queue_.clear();
  queued_bytes_ = 0;
  close_after_drain_ = false;
  if (notify_handlers) {
    fire_close_handlers();
  } else {
    close_handlers_fired_ = true;  // a dead process's callbacks never run
  }
  // No FIN frame: the connection vanished, nothing traverses the medium.
  auto self = shared_from_this();
  net_.scheduler().post([this, self]() { net_.forget_stream(id_); },
                        {trace_id_, sim::tag_id("net.stream.forget")});
  release_handlers_soon();
}

void Stream::fire_close_handlers() {
  if (close_handlers_fired_) return;
  close_handlers_fired_ = true;
  for (const VoidHandler& handler : on_close_) {
    if (handler) handler();
  }
}

void Stream::drop_handlers() {
  on_connected_ = nullptr;
  on_data_ = nullptr;
  on_drain_ = nullptr;
  // Destroying a close handler may close this very stream (a captured
  // RmiConnection closes its stream in its destructor), which walks on_close_:
  // detach the handlers before any of them is destroyed.
  auto on_close = std::move(on_close_);
  on_close_.clear();
}

void Stream::release_handlers_soon() {
  // Handlers routinely capture the stream's own shared_ptr as a keep-alive;
  // once closed they can never fire again, so drop them to break the cycle.
  // Deferred via the scheduler because one of them may be on the call stack
  // right now (destroying an executing std::function is UB).
  auto self = shared_from_this();
  net_.scheduler().post(
      [self]() {
        self->on_connected_ = nullptr;
        self->on_data_ = nullptr;
        self->on_drain_ = nullptr;
        self->on_close_.clear();
      },
      {trace_id_, sim::tag_id("net.stream.release")});
}

}  // namespace umiddle::net
