// Model test of the per-link sequencing state machine (core/link_session.hpp),
// with no net::Network and no Scheduler. A sender half and a receiver half are
// joined by an in-test lossless wire; a cut loses whatever is in flight in
// either direction. Each row scripts sends, cuts, reconnects and ACKs, and
// after every step delivery must be exactly-once and in order: message ids
// are sent in increasing order, so the delivered ids must strictly increase.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <utility>

#include "core/link_session.hpp"

namespace umiddle::core {
namespace {

enum class Op {
  send,              ///< send the next message id; `arg` = TTL in ns (0 = none)
  deliver,           ///< the receiver reads everything in flight toward it
  cut,               ///< stream reset: in-flight frames and ACKs are lost
  reconnect,         ///< new stream; the sender leads with RESUME
  ack,               ///< the receiver's pending ACK reaches the sender
  forge_ack,         ///< an ACK for epoch + `epoch_offset` with count `arg` reaches the sender
  restart_receiver,  ///< the receiving process crashes: cut, and its counts are gone
  advance,           ///< virtual time moves on by `arg` ns
};

struct Step {
  Op op;
  std::uint64_t arg = 0;
  std::uint64_t epoch_offset = 0;
};

constexpr Step Send{Op::send};
constexpr Step Deliver{Op::deliver};
constexpr Step Cut{Op::cut};
constexpr Step Reconnect{Op::reconnect};
constexpr Step Ack{Op::ack};
constexpr Step RestartReceiver{Op::restart_receiver};
constexpr Step SendTtl(std::uint64_t ns) { return {Op::send, ns}; }
constexpr Step Advance(std::uint64_t ns) { return {Op::advance, ns}; }
constexpr Step ForgeAck(std::uint64_t count, std::uint64_t epoch_offset = 0) {
  return {Op::forge_ack, count, epoch_offset};
}

struct Counts {
  std::uint64_t retired = 0;          ///< sent frames retired by an ACK
  std::uint64_t unacked_dropped = 0;  ///< sent frames dropped for a restarted receiver
  std::uint64_t expired = 0;          ///< ledger entries expired at replay
  std::uint64_t gaps = 0;             ///< RESUMEs that found frames lost to retention
  std::uint64_t dups = 0;             ///< SEQ replays suppressed as duplicates
  std::uint64_t stale_acks = 0;       ///< ACKs ignored for a wrong epoch

  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{retired " << c.retired << ", unacked_dropped " << c.unacked_dropped
            << ", expired " << c.expired << ", gaps " << c.gaps << ", dups " << c.dups
            << ", stale_acks " << c.stale_acks << "}";
}

/// Message `id` on the wire: a DISCONNECT frame naming path `id`, which is
/// small, fixed-size and carries the id back out.
Bytes encode_message(std::uint64_t id) {
  return umtp::encode(umtp::Frame{umtp::DisconnectFrame{PathId(id)}});
}

const std::size_t kFrameBytes = encode_message(1).size();

/// One sender and one receiver joined by a lossless wire. The sender retains
/// `retain_frames` sent frames' worth of bytes, as Transport retains
/// retain_buffer_bytes.
class Wire {
 public:
  explicit Wire(std::size_t retain_frames) : retain_bytes_(retain_frames * kFrameBytes) {
    channel_ = next_channel_++;
    tx_.open(channel_);
  }

  void run(const Step& step) {
    switch (step.op) {
      case Op::send: send(step.arg); break;
      case Op::deliver: deliver(); break;
      case Op::cut: cut(); break;
      case Op::reconnect: reconnect(); break;
      case Op::ack:
        ASSERT_TRUE(to_tx_.has_value()) << "no ACK in flight";
        on_ack(tx_.epoch(), *std::exchange(to_tx_, std::nullopt));
        break;
      case Op::forge_ack: on_ack(tx_.epoch() + step.epoch_offset, step.arg); break;
      case Op::restart_receiver:
        cut();
        rx_ = LinkSession::Receiver{};
        break;
      case Op::advance: now_ += static_cast<std::int64_t>(step.arg); break;
    }
  }

  std::vector<std::uint64_t> delivered;
  Counts counts;

 private:
  bool ready() const { return up_ && !tx_.resuming(); }

  void send(std::uint64_t ttl_ns) {
    const std::int64_t deadline = ttl_ns == 0 ? 0 : now_ + static_cast<std::int64_t>(ttl_ns);
    PayloadPtr frame = make_payload(encode_message(next_id_++));
    const bool sent = ready();
    if (sent) to_rx_.push_back(*frame);
    ASSERT_TRUE(
        tx_.push(std::move(frame), deadline, sent, std::numeric_limits<std::size_t>::max()));
    if (sent) tx_.trim(retain_bytes_);
  }

  void deliver() {
    umtp::Reader reader;
    for (const Bytes& bytes : std::exchange(to_rx_, {})) {
      std::vector<umtp::Frame> frames;
      ASSERT_TRUE(reader.feed(bytes, frames).ok());
      for (umtp::Frame& frame : frames) receive(std::move(frame));
    }
  }

  void receive(umtp::Frame frame) {
    if (auto* resume = std::get_if<umtp::ResumeFrame>(&frame)) {
      const LinkSession::Receiver::Resumed r = rx_.resume(*resume, channel_);
      counts.gaps += r.gap ? 1 : 0;
      to_tx_ = r.ack_count;
      return;
    }
    if (auto* seq = std::get_if<umtp::SeqFrame>(&frame)) {
      if (!rx_.accept(channel_, seq->seq)) {
        counts.dups += 1;
        return;
      }
      auto inner = umtp::decode_body(seq->body);
      ASSERT_TRUE(inner.ok());
      frame = std::move(inner).take();
    } else {
      rx_.count(channel_);
    }
    delivered.push_back(std::get<umtp::DisconnectFrame>(frame).path.value());
  }

  void cut() {
    to_rx_.clear();
    to_tx_.reset();
    up_ = false;
  }

  void reconnect() {
    channel_ = next_channel_++;
    tx_.open(channel_);
    up_ = true;
    to_rx_.push_back(umtp::encode(umtp::Frame{tx_.resume(kNode)}));
  }

  // Transport::handle_ack, minus streams and metrics.
  void on_ack(std::uint64_t epoch, std::uint64_t count) {
    auto acked = tx_.ack(epoch, count, channel_, now_);
    if (!acked) {
      counts.stale_acks += 1;
      return;
    }
    counts.retired += acked->retired;
    counts.unacked_dropped += acked->unacked_dropped;
    counts.expired += acked->expired;
    for (Bytes& frame : acked->replay) to_rx_.push_back(std::move(frame));
  }

  static constexpr NodeId kNode{7};

  const std::size_t retain_bytes_;
  LinkSession::Sender tx_;
  LinkSession::Receiver rx_;
  std::uint64_t channel_ = 0;
  std::uint64_t next_channel_ = 100;
  std::uint64_t next_id_ = 1;
  std::int64_t now_ = 0;
  bool up_ = true;
  std::vector<Bytes> to_rx_;             ///< in flight toward the receiver
  std::optional<std::uint64_t> to_tx_;   ///< ACK count in flight toward the sender
};

struct Row {
  const char* name;
  std::size_t retain_frames;
  std::vector<Step> script;
  std::vector<std::uint64_t> delivered;
  Counts counts;
};

constexpr std::size_t kRetainAll = 1024;

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {"a_trailing_expired_entry_across_two_cuts",
       kRetainAll,
       {Send, Deliver,                      // 1 delivered
        Send, SendTtl(10), Cut,             // 2 and 3 lost in flight
        Advance(20),                        // 3 expires in the ledger
        Reconnect, Deliver, Ack, Deliver,   // 2 replayed; 3 was the trailing entry
        Send, Deliver,                      // 4 counted implicitly after the replay
        Send, Cut,                          // 5 lost
        Reconnect, Deliver, Ack, Deliver},  // only 5 may be replayed
       {1, 2, 4, 5},
       {.retired = 3, .expired = 1}},
      {"b_restarted_receiver_with_nothing_to_replay",
       kRetainAll,
       {Send, Send, Deliver,                // 1, 2 delivered
        RestartReceiver,                    // their acks die with the receiver
        Reconnect, Deliver, Ack,            // ACK count unknown: drop 1, 2
        Send, Deliver,                      // 3 counted as the receiver's first
        Send, Cut,                          // 4 lost
        Reconnect, Deliver, Ack, Deliver},  // only 4 may be replayed
       {1, 2, 3, 4},
       {.retired = 1, .unacked_dropped = 2}},
      {"c_lost_ack_resumes_through_node_home",
       kRetainAll,
       {Send, Deliver,                      // 1 delivered
        Send, Cut,                          // 2 lost
        Reconnect, Deliver,                 // count migrates to the new stream...
        Cut,                                // ...but the ACK saying so is lost
        Send,                               // 3 buffered while down
        Reconnect, Deliver, Ack, Deliver},  // stale prev-channel hint: found by node
       {1, 2, 3},
       {.retired = 1}},
      {"d_ack_count_beyond_next_seq_is_clamped",
       kRetainAll,
       {Send, Send, Deliver,                // 1, 2 delivered
        Cut, Reconnect, Deliver,            // RESUME answered
        ForgeAck(100),                      // a lying count stands in for the real ACK
        Send, Deliver,                      // 3
        Send, Cut,                          // 4 lost
        Reconnect, Deliver, Ack, Deliver},  // only 4 may be replayed
       {1, 2, 3, 4},
       {.retired = 3}},
      {"e_retention_overflow_is_a_resume_gap",
       1,
       {Send, Deliver,                      // 1 delivered
        Send, Send, Cut,                    // 2, 3 lost; only 3 is still retained
        Reconnect, Deliver, Ack, Deliver},  // 2 is unrecoverable
       {1, 3},
       {.gaps = 1}},
      {"f_stale_epoch_ack_is_ignored",
       kRetainAll,
       {Send, Deliver,                      // 1 delivered
        Send, Cut,                          // 2 lost
        Reconnect, Deliver,
        ForgeAck(2, 1),                     // would retire 2 unreplayed if honoured
        Ack, Deliver},
       {1, 2},
       {.retired = 1, .stale_acks = 1}},
  };
  return table;
}

// Keeps ctest names stable: without it gtest prints the row's raw bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class LinkSessionModel : public ::testing::TestWithParam<Row> {};

TEST_P(LinkSessionModel, ExactlyOnceInOrder) {
  const Row& row = GetParam();
  Wire wire(row.retain_frames);
  for (std::size_t i = 0; i < row.script.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    wire.run(row.script[i]);
    if (HasFatalFailure()) return;
    for (std::size_t k = 1; k < wire.delivered.size(); ++k) {
      ASSERT_LT(wire.delivered[k - 1], wire.delivered[k])
          << "message " << wire.delivered[k] << " delivered twice or out of order";
    }
  }
  EXPECT_EQ(wire.delivered, row.delivered);
  EXPECT_EQ(wire.counts, row.counts);
}

INSTANTIATE_TEST_SUITE_P(Rows, LinkSessionModel, ::testing::ValuesIn(rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace umiddle::core
