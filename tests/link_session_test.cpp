// Model test of one link's sender and receiver halves (core/link_session.hpp),
// with no net::Network and no Scheduler. The sender half is the same
// LinkSession::Sender the transport drives: the Wire below feeds it the same
// stream events (opened, up, reset, attempt failed, graceful close, ACK, push)
// and carries out what it hands back, over an in-test lossless wire; a cut
// loses whatever is in flight in either direction.
//
// Two suites share the Wire. Each hand-written Row scripts sends, cuts,
// reconnects and ACKs and pins what is delivered and counted. The explorer
// runs every interleaving of the op alphabet for three messages, breadth
// first with duplicate states merged, and checks the delivery contract after
// every step; a violation prints as a ready-to-paste Row.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/link_session.hpp"

namespace umiddle::core {
namespace {

/// splitmix64's finalizer.
std::uint64_t scramble(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One more word into a state hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  return scramble(h + scramble(word + 0x9e3779b97f4a7c15ull));
}

/// Bytes into a state hash, eight to a word.
std::uint64_t mix(std::uint64_t h, const Bytes& bytes) {
  h = mix(h, bytes.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    word = word << 8 | bytes[i];
    if (i % 8 == 7 || i + 1 == bytes.size()) h = mix(h, std::exchange(word, 0));
  }
  return h;
}

}  // namespace

/// The explorer's state hashing: a hash of everything a session half holds,
/// so equal states hash equal and distinct ones (almost surely) differ.
struct LinkSessionProbe {
  static std::uint64_t fingerprint(const LinkSession::Sender& s) {
    std::uint64_t h = mix(mix(static_cast<std::uint64_t>(s.phase_), s.attempts_), s.next_seq_);
    h = mix(mix(h, s.epoch_), s.count_home_);
    for (const auto& e : s.ledger_) {
      h = mix(mix(mix(h, e.seq), static_cast<std::uint64_t>(e.deadline_ns)), e.sent);
      h = mix(h, *e.frame);
    }
    return h;
  }

  /// The frames in the sender's ledger that were written to a stream.
  static std::vector<PayloadPtr> sent(const LinkSession::Sender& s) {
    std::vector<PayloadPtr> out;
    for (const auto& e : s.ledger_) {
      if (e.sent) out.push_back(e.frame);
    }
    return out;
  }

  /// Whether the sender's ledger holds `frame`.
  static bool holds(const LinkSession::Sender& s, const PayloadPtr& frame) {
    return std::any_of(s.ledger_.begin(), s.ledger_.end(),
                       [&](const auto& e) { return e.frame == frame; });
  }

  static std::uint64_t fingerprint(const LinkSession::Receiver& r) {
    std::uint64_t h = 0;
    // Summed, so equal maps hash equal whatever their iteration order.
    for (const auto& [channel, link] : r.links_) {
      h += mix(mix(mix(channel, link.count), link.epoch), link.realigned);
    }
    for (const auto& [node, channel] : r.home_) h = mix(mix(h, node.value()), channel);
    return h;
  }
};

namespace {

using Phase = LinkSession::Sender::Phase;
using Push = LinkSession::Sender::Push;

enum class Op {
  send,              ///< send the next message id; `arg` = TTL in ns (0 = none)
  deliver,           ///< the receiver reads everything in flight toward it
  cut,               ///< stream reset: in-flight frames and ACKs are lost
  reconnect,         ///< the link's stream comes up, opened first if the link is down
  ack,               ///< the receiver's pending ACK reaches the sender
  forge_ack,         ///< an ACK for epoch + `epoch_offset` with count `arg` reaches the sender
  restart_receiver,  ///< the receiving process crashes: cut, and its counts are gone
  advance,           ///< virtual time moves on by `arg` ns
  fail,              ///< a reconnect attempt of the down link cannot open a stream
  close,             ///< the receiver closes the link's stream gracefully
  crash_sender,      ///< the sending process dies, and its link with it
};

struct Step {
  Op op;
  std::uint64_t arg = 0;
  std::uint64_t epoch_offset = 0;

  bool operator==(const Step&) const = default;
};

constexpr Step Send{Op::send};
constexpr Step Deliver{Op::deliver};
constexpr Step Cut{Op::cut};
constexpr Step Reconnect{Op::reconnect};
constexpr Step Ack{Op::ack};
constexpr Step RestartReceiver{Op::restart_receiver};
constexpr Step Fail{Op::fail};
constexpr Step Close{Op::close};
constexpr Step CrashSender{Op::crash_sender};
constexpr Step SendTtl(std::uint64_t ns) { return {Op::send, ns}; }
constexpr Step Advance(std::uint64_t ns) { return {Op::advance, ns}; }
constexpr Step ForgeAck(std::uint64_t count, std::uint64_t epoch_offset = 0) {
  return {Op::forge_ack, count, epoch_offset};
}

/// A step as the Row script spells it.
std::ostream& operator<<(std::ostream& os, const Step& s) {
  switch (s.op) {
    case Op::send: return s.arg == 0 ? os << "Send" : os << "SendTtl(" << s.arg << ")";
    case Op::deliver: return os << "Deliver";
    case Op::cut: return os << "Cut";
    case Op::reconnect: return os << "Reconnect";
    case Op::ack: return os << "Ack";
    case Op::forge_ack: return os << "ForgeAck(" << s.arg << ", " << s.epoch_offset << ")";
    case Op::restart_receiver: return os << "RestartReceiver";
    case Op::advance: return os << "Advance(" << s.arg << ")";
    case Op::fail: return os << "Fail";
    case Op::close: return os << "Close";
    case Op::crash_sender: return os << "CrashSender";
  }
  return os;
}

struct Counts {
  std::uint64_t retired = 0;          ///< sent frames retired by an ACK
  std::uint64_t unacked_dropped = 0;  ///< sent frames dropped for a restarted receiver
  std::uint64_t expired = 0;          ///< ledger entries expired at replay
  std::uint64_t gaps = 0;             ///< RESUMEs that found frames lost to retention
  std::uint64_t dups = 0;             ///< SEQ replays suppressed as duplicates
  std::uint64_t stale_acks = 0;       ///< ACKs ignored for a wrong epoch
  std::uint64_t outage_dropped = 0;   ///< refused by a full outage buffer, or unsent at give-up
  std::uint64_t discarded = 0;        ///< unsent when the link closed or the sender crashed
  /// Sent, and still in the ledger when the link was given up, closed or
  /// crashed: delivered before, or lost with the stream. The documented slack.
  std::uint64_t abandoned = 0;

  bool operator==(const Counts&) const = default;
};

/// Its arguments, streamed into one string.
template <class... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Counts as a designated initializer of its non-zero fields.
std::ostream& operator<<(std::ostream& os, const Counts& c) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"retired", c.retired},       {"unacked_dropped", c.unacked_dropped},
      {"expired", c.expired},       {"gaps", c.gaps},
      {"dups", c.dups},             {"stale_acks", c.stale_acks},
      {"outage_dropped", c.outage_dropped}, {"discarded", c.discarded},
      {"abandoned", c.abandoned}};
  const char* sep = "";
  os << "{";
  for (const auto& [name, n] : fields) {
    if (n == 0) continue;
    os << sep << "." << name << " = " << n;
    sep = ", ";
  }
  return os << "}";
}

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
constexpr int kManyAttempts = std::numeric_limits<int>::max();

/// Message `id` on the wire: a DISCONNECT frame naming path `id`, which is
/// small, fixed-size and carries the id back out. Encoded once per id: the
/// explorer replays its sends hundreds of thousands of times.
PayloadPtr message(std::uint64_t id) {
  static std::map<std::uint64_t, PayloadPtr> encoded;
  PayloadPtr& frame = encoded[id];
  if (frame == nullptr) {
    frame = make_payload(umtp::encode(umtp::Frame{umtp::DisconnectFrame{PathId(id)}}));
  }
  return frame;
}

const std::size_t kFrameBytes = message(1)->size();

std::size_t frame_bytes(std::size_t frames) {
  return frames == kUnbounded ? kUnbounded : frames * kFrameBytes;
}

/// One sender and one receiver joined by a lossless wire. The link starts up.
/// The sender retains `retain_frames` sent frames' worth of bytes and holds at
/// most `outage_frames` unsent ones once reset, as Transport applies
/// retain_buffer_bytes and outage_buffer_bytes; it gives up after
/// `max_attempts` failed reconnect attempts.
class Wire {
 public:
  Wire(std::size_t retain_frames, std::size_t outage_frames, int max_attempts)
      : limits_{100, 2000, max_attempts, frame_bytes(outage_frames), frame_bytes(retain_frames)} {
    tx_.emplace(limits_);
    open();
    reconnect();
  }

  void run(const Step& step) {
    switch (step.op) {
      case Op::send: send(step.arg); break;
      case Op::deliver: deliver(); break;
      case Op::cut: cut(); break;
      case Op::reconnect: reconnect(); break;
      case Op::ack:
        ASSERT_TRUE(to_tx_.has_value()) << "no ACK in flight";
        on_ack(tx_->epoch(), *std::exchange(to_tx_, std::nullopt));
        break;
      case Op::forge_ack: on_ack(tx_->epoch() + step.epoch_offset, step.arg); break;
      case Op::restart_receiver:
        cut();
        rx_ = LinkSession::Receiver{};
        restarted_ = true;
        break;
      case Op::advance: now_ += static_cast<std::int64_t>(step.arg); break;
      case Op::fail: retry(tx_->reset()); break;
      case Op::close:
        rx_.forget(channel_);
        end_link();
        break;
      case Op::crash_sender: end_link(); break;
    }
  }

  /// Whether `step` can happen in this state (the explorer's alphabet).
  bool enabled(const Step& step, std::size_t max_messages) const {
    const bool streaming = tx_ && tx_->phase() != Phase::down;
    switch (step.op) {
      // The clock moves once, and only to expire a message sent with a TTL.
      case Op::send: return next_id_ <= max_messages && (step.arg == 0 || now_ == 0);
      case Op::deliver: return !to_rx_.empty();
      case Op::cut: return streaming;
      case Op::reconnect:
        return tx_ && tx_->phase() != Phase::up && tx_->phase() != Phase::resuming;
      case Op::ack: return to_tx_.has_value();
      case Op::forge_ack: return tx_.has_value();
      case Op::restart_receiver: return true;
      case Op::advance: return now_ == 0 && ttl_sent_;
      case Op::fail: return tx_ && tx_->phase() == Phase::down;
      case Op::close: return streaming;
      case Op::crash_sender: return tx_.has_value();
    }
    return false;
  }

  /// The delivery contract, checked after every explored step; empty when it
  /// holds. Needs unbounded retention: trimming retires frames uncounted.
  std::string broken() const {
    for (std::size_t k = 1; k < delivered.size(); ++k) {
      // Ids are sent in increasing order: at most once, and in order.
      if (delivered[k - 1] >= delivered[k]) {
        return cat("message ", delivered[k], " delivered twice or out of order");
      }
    }
    const std::uint64_t offered = next_id_ - 1;
    if (!restarted_) {
      // Exactly once across resets: with no receiver restart on the path,
      // every offered message is delivered, held, or lost in a fate that
      // says so, and no sent frame is dropped as possibly delivered.
      if (counts.unacked_dropped != 0) {
        return "a sent frame was dropped as possibly delivered, yet the receiver never restarted";
      }
      std::uint64_t missing = 0;
      for (std::uint64_t id = 1; id <= offered; ++id) {
        const bool held = tx_ && LinkSessionProbe::holds(*tx_, message(id));
        missing += !held && std::find(delivered.begin(), delivered.end(), id) == delivered.end();
      }
      const std::uint64_t lost =
          counts.expired + counts.outage_dropped + counts.discarded + abandoned_lost_;
      if (missing != lost) {
        return cat(missing, " offered message(s) neither delivered nor held, but ", lost,
                   " lost in a fate: ", counts);
      }
    }
    const std::uint64_t unsent = tx_ ? tx_->unsent_count() : 0;
    const std::uint64_t sent = tx_ ? tx_->sent_count() : 0;
    const std::uint64_t fates =
        counts.expired + counts.unacked_dropped + counts.outage_dropped + counts.discarded;
    // Every offered frame is held, retired by an ACK, in one fate, or
    // abandoned: the sender's accounting loses nothing and counts nothing twice.
    if (offered != unsent + sent + counts.retired + fates + counts.abandoned) {
      return cat("offered ", offered, " != unsent ", unsent, " + sent ", sent, " + ", counts);
    }
    // Conservation (tests/conservation.hpp) with the held frames as slack:
    // an ACK retires only delivered frames, and only written frames are
    // delivered; unacked_dropped and abandoned are the documented slack.
    if (counts.retired > delivered.size()) {
      return cat("ACKs retired ", counts.retired, " frames, only ", delivered.size(),
                 " delivered");
    }
    if (delivered.size() > counts.retired + sent + counts.unacked_dropped + counts.abandoned) {
      return cat(delivered.size(), " delivered, more than were ever written: sent ", sent,
                 " + ", counts);
    }
    // With nothing trimmed, only entries retired unreplayed (expired, or
    // dropped for a "count unknown" ACK) can leave the receiver's count behind
    // the sender's base.
    if (counts.gaps != 0 && counts.expired + counts.unacked_dropped == 0) {
      return "a RESUME found a gap, yet no entry was retired unreplayed";
    }
    return {};
  }

  /// A hash of the whole state, sender and receiver included.
  std::uint64_t fingerprint() const {
    std::uint64_t h = mix(tx_ ? LinkSessionProbe::fingerprint(*tx_) : 0,
                          LinkSessionProbe::fingerprint(rx_));
    // Left out: what neither the future nor a later check reads, so states
    // that differ only there are the same state. That is the dups and
    // stale_acks counts, and after a receiver restart abandoned_lost_ and the
    // delivered ids but the last (the ids before it were checked in order
    // already).
    h = mix(h, delivered.size());
    if (restarted_) {
      h = mix(h, delivered.empty() ? 0 : delivered.back());
    } else {
      for (std::uint64_t id : delivered) h = mix(h, id);
    }
    h = mix(h, to_rx_.size());
    for (const Bytes& bytes : to_rx_) h = mix(h, bytes);
    for (std::uint64_t word : {to_tx_.value_or(0), std::uint64_t{to_tx_.has_value()},
                               static_cast<std::uint64_t>(now_), std::uint64_t{ttl_sent_},
                               channel_, next_channel_, next_id_, std::uint64_t{restarted_},
                               restarted_ ? 0 : abandoned_lost_, counts.retired,
                               counts.unacked_dropped, counts.expired, counts.gaps,
                               counts.outage_dropped, counts.discarded, counts.abandoned}) {
      h = mix(h, word);
    }
    return h;
  }

  const std::optional<LinkSession::Sender>& sender() const { return tx_; }

  std::vector<std::uint64_t> delivered;
  Counts counts;

 private:
  void open() {
    channel_ = next_channel_++;
    tx_->open(channel_);
  }

  void send(std::uint64_t ttl_ns) {
    const std::int64_t deadline = ttl_ns == 0 ? 0 : now_ + static_cast<std::int64_t>(ttl_ns);
    ttl_sent_ |= ttl_ns != 0;
    if (!tx_) {
      // The transport opens a new link for the first frame after one ended.
      tx_.emplace(limits_);
      open();
    }
    PayloadPtr frame = message(next_id_++);
    switch (tx_->push(frame, deadline)) {
      case Push::write:
        to_rx_.push_back(*frame);
        tx_->trim(0);
        break;
      case Push::hold: break;
      case Push::refuse: counts.outage_dropped += 1; break;
    }
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
      delivered.push_back(std::get<umtp::DisconnectFrame>(seq->frame).path.value());
      return;
    }
    rx_.count(channel_);
    delivered.push_back(std::get<umtp::DisconnectFrame>(frame).path.value());
  }

  void cut() {
    to_rx_.clear();
    to_tx_.reset();
    if (tx_ && tx_->phase() != Phase::down) retry(tx_->reset());
  }

  void retry(const LinkSession::Sender::Retry& r) {
    if (!r.give_up()) return;  // the backoff is armed; the next op decides the attempt
    counts.outage_dropped += tx_->unsent_count();
    abandon();
  }

  void reconnect() {
    if (tx_->phase() == Phase::down) open();
    // The receiver accepts the stream as it comes up. Transport registers
    // every accepted stream; a reconnect stream's entry is replaced by its
    // RESUME, or never looked up if that is lost, so only a link's first
    // stream is registered here.
    if (tx_->phase() == Phase::handshake) rx_.open(channel_);
    for (const PayloadPtr& frame : tx_->up(kNode)) to_rx_.push_back(*frame);
    tx_->trim(0);
  }

  void on_ack(std::uint64_t epoch, std::uint64_t count) {
    auto acked = tx_->ack(epoch, count, channel_, now_);
    if (!acked) {
      counts.stale_acks += 1;
      return;
    }
    counts.retired += acked->retired;
    counts.unacked_dropped += acked->unacked_dropped;
    counts.expired += acked->expired;
    for (Bytes& frame : acked->replay) to_rx_.push_back(std::move(frame));
  }

  /// The link ends with its stream (graceful close or sender crash): what is
  /// in flight is lost, unsent frames are discarded and sent ones abandoned.
  void end_link() {
    to_rx_.clear();
    to_tx_.reset();
    counts.discarded += tx_->unsent_count();
    abandon();
  }

  /// The link is gone with its sent frames: abandoned, whether or not they
  /// were delivered before.
  void abandon() {
    for (const PayloadPtr& frame : LinkSessionProbe::sent(*tx_)) {
      counts.abandoned += 1;
      const auto body = std::span<const std::uint8_t>(*frame).subspan(4);  // past the length
      const std::uint64_t id =
          std::get<umtp::DisconnectFrame>(umtp::decode_body(body).take()).path.value();
      abandoned_lost_ += std::find(delivered.begin(), delivered.end(), id) == delivered.end();
    }
    tx_.reset();
  }

  static constexpr NodeId kNode{7};

  LinkSession::Sender::Limits limits_;
  std::optional<LinkSession::Sender> tx_;
  LinkSession::Receiver rx_;
  std::uint64_t channel_ = 0;
  std::uint64_t next_channel_ = 100;
  std::uint64_t next_id_ = 1;
  std::int64_t now_ = 0;
  bool ttl_sent_ = false;
  bool restarted_ = false;              ///< the receiver restarted on this path
  std::uint64_t abandoned_lost_ = 0;    ///< abandoned frames never delivered
  std::vector<Bytes> to_rx_;            ///< in flight toward the receiver
  std::optional<std::uint64_t> to_tx_;  ///< ACK count in flight toward the sender
};

struct Row {
  const char* name;
  std::size_t retain_frames;
  std::vector<Step> script;
  std::vector<std::uint64_t> delivered;
  Counts counts;
  std::size_t outage_frames = kUnbounded;
  int max_attempts = kManyAttempts;
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
      {"g_graceful_close_discards_the_outage_buffer",
       kRetainAll,
       {Send, Deliver,                      // 1 delivered
        Cut, Send, Send,                    // 2, 3 held while down
        Reconnect,                          // RESUME in flight
        Close,                              // the peer closes before answering
        Send, Reconnect, Deliver},          // a new link: 4 flushed plain
       {1, 4},
       {.discarded = 2, .abandoned = 1}},
      {"h_give_up_after_the_last_attempt",
       kRetainAll,
       {Send, Deliver, Send, Cut,           // 2 sent and lost: fate uncertain
        Send, Send,                         // 3 held; 4 over the outage cap
        Fail, Fail},                        // both attempts fail: give up
       {1},
       {.outage_dropped = 2, .abandoned = 2},
       1,
       2},
      {"i_lost_unknown_ack_after_receiver_restart",
       kRetainAll,
       {Send, Deliver,                      // 1 delivered
        RestartReceiver,                    // its count dies with the receiver
        Reconnect, Deliver,                 // the receiver realigns: count unknown...
        Cut,                                // ...but the ACK saying so is lost
        Reconnect, Deliver, Ack, Deliver},  // still unknown: 1 is dropped, not replayed
       {1},
       {.unacked_dropped = 1}},
      {"j_lost_replay_after_a_reset_before_any_frame",
       kRetainAll,
       {Cut, Send,                          // 1 held while down
        Reconnect, Deliver, Ack,            // the first stream never carried a frame: count 0
        Cut,                                // the replay of 1 is lost
        Reconnect, Deliver, Ack, Deliver},  // 1 is replayed again
       {1},
       {}},
      {"k_lost_replay_after_an_unknown_ack",
       kRetainAll,
       {Close, Send,                        // a new link; 1 held in its handshake
        Cut,                                // reset before the receiver accepted it
        Reconnect, Deliver, Ack,            // count unknown, and the sender learns it
        Cut,                                // the replay of 1 is lost
        Reconnect, Deliver, Ack, Deliver},  // the hint finds the realigned count: 1 replayed
       {1},
       {}},
      {"l_reset_before_the_first_frame_arrives",
       kRetainAll,
       {Send, Cut,                          // 1 written, lost before it arrived
        Reconnect, Deliver, Ack, Deliver},  // the accepted stream counts 0: 1 replayed
       {1},
       {}},
  };
  return table;
}

// Keeps ctest names stable: without it gtest prints the row's raw bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class LinkSessionModel : public ::testing::TestWithParam<Row> {};

TEST_P(LinkSessionModel, ExactlyOnceInOrder) {
  const Row& row = GetParam();
  Wire wire(row.retain_frames, row.outage_frames, row.max_attempts);
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

// --- lifecycle decisions --------------------------------------------------------

TEST(LinkSessionSender, BackoffDoublesToTheCapThenGivesUp) {
  LinkSession::Sender tx({.reconnect_base_ns = 100, .reconnect_cap_ns = 500, .max_attempts = 4,
                          .outage_bytes = 0, .retain_bytes = 0});
  tx.open(1);
  ASSERT_TRUE(tx.up(NodeId{1}).empty());
  ASSERT_EQ(tx.push(message(1), 0), Push::write);
  const LinkSession::Sender::Retry first = tx.reset();
  EXPECT_TRUE(first.recovery_begins);
  EXPECT_EQ(first.attempt, 1);
  EXPECT_EQ(first.backoff_ns, 100);
  EXPECT_EQ(tx.phase(), Phase::down);
  EXPECT_EQ(tx.push(message(2), 0), Push::refuse);  // the outage cap is 0 bytes
  tx.open(2);
  EXPECT_EQ(tx.phase(), Phase::reopening);
  const LinkSession::Sender::Retry second = tx.reset();  // reset mid-handshake
  EXPECT_FALSE(second.recovery_begins);
  EXPECT_EQ(second.backoff_ns, 200);
  EXPECT_EQ(tx.reset().backoff_ns, 400);  // attempt 2 could not open a stream
  EXPECT_EQ(tx.reset().backoff_ns, 500);  // attempt 4, capped
  EXPECT_TRUE(tx.reset().give_up());
  EXPECT_EQ(tx.unsent_count(), 0u);
  EXPECT_EQ(tx.sent_count(), 1u);
}

TEST(LinkSessionSender, HandshakeHoldsWithoutBoundAndTheAckEndsTheRecovery) {
  LinkSession::Sender tx({.reconnect_base_ns = 100, .reconnect_cap_ns = 500, .max_attempts = 4,
                          .outage_bytes = 0, .retain_bytes = kUnbounded});
  tx.open(1);
  EXPECT_TRUE(tx.travels_plain());
  EXPECT_EQ(tx.push(message(1), 0), Push::hold);  // unbounded before the first up
  EXPECT_EQ(tx.push(message(2), 0), Push::hold);
  EXPECT_EQ(tx.up(NodeId{1}).size(), 2u);  // the flush
  EXPECT_EQ(tx.phase(), Phase::up);
  (void)tx.reset();
  EXPECT_FALSE(tx.travels_plain());
  tx.open(2);
  ASSERT_EQ(tx.up(NodeId{1}).size(), 1u);  // the RESUME
  EXPECT_EQ(tx.phase(), Phase::resuming);
  EXPECT_FALSE(tx.ack(tx.epoch() + 1, 2, 2, 0));  // stale epoch: still resuming
  EXPECT_EQ(tx.phase(), Phase::resuming);
  auto acked = tx.ack(tx.epoch(), 2, 2, 0);
  ASSERT_TRUE(acked);
  EXPECT_TRUE(acked->resumed);
  EXPECT_EQ(acked->retired, 2u);
  EXPECT_EQ(tx.phase(), Phase::up);
  EXPECT_EQ(tx.reset().attempt, 1);  // the ACK reset the attempt count
}

// --- bounded exhaustive exploration -------------------------------------------

/// Every op but forge_ack: a same-epoch forged ACK is authority over the
/// ledger by design (lint rule `ack-origin`), and a stale-epoch one is a
/// no-op (row f).
const std::vector<Step> kAlphabet = {Send, SendTtl(10), Advance(20), Deliver,
                                     Cut, Reconnect, Ack, RestartReceiver,
                                     Fail, Close, CrashSender};
constexpr std::size_t kMessages = 3;
constexpr std::size_t kOutageFrames = 2;
constexpr int kMaxAttempts = 2;
constexpr int kDepth = 12;

Wire explorer_start() { return Wire(kRetainAll, kOutageFrames, kMaxAttempts); }

/// One explored state: the step that first reached it, from state `parent`.
/// States are rebuilt by replaying their path, so memory stays small per state.
struct Explored {
  std::size_t parent;
  Step step;
};

std::vector<Step> path_to(const std::vector<Explored>& states, std::size_t i) {
  std::vector<Step> path;
  for (; i != 0; i = states[i].parent) path.push_back(states[i].step);
  std::reverse(path.begin(), path.end());
  return path;
}

/// `script` and where it ended, as a Row that replays it.
std::string as_row(const std::vector<Step>& script, const Wire& end) {
  std::ostringstream row;
  row << "{\"explored_" << script.size() << "_steps\",\n kRetainAll,\n {";
  for (std::size_t i = 0; i < script.size(); ++i) row << (i == 0 ? "" : ", ") << script[i];
  row << "},\n {";
  for (std::size_t i = 0; i < end.delivered.size(); ++i) {
    row << (i == 0 ? "" : ", ") << end.delivered[i];
  }
  row << "},\n " << end.counts << ",\n " << kOutageFrames << ",\n " << kMaxAttempts << "},";
  return row.str();
}

TEST(LinkSessionExplorer, EveryInterleavingKeepsTheContract) {
  std::vector<Explored> states{{0, Send}};  // the root; its step is unused
  std::unordered_set<std::uint64_t> seen{explorer_start().fingerprint()};
  // What the search must reach, or it proves little.
  bool gave_up = false, closed = false, crashed = false, refused = false, expired = false,
       dropped = false, rehandshake = false;
  // The states along the last rebuilt path, by depth. A level lists its
  // states in path order, so each shares most of its path with the last.
  std::vector<Step> built_path;
  std::vector<Wire> built{explorer_start()};
  built.reserve(kDepth + 1);
  std::size_t level = 0;
  for (int depth = 1; depth <= kDepth; ++depth) {
    const std::size_t level_end = states.size();
    for (std::size_t i = level; i < level_end; ++i) {
      std::vector<Step> path = path_to(states, i);
      const std::size_t shared = static_cast<std::size_t>(
          std::mismatch(path.begin(), path.end(), built_path.begin(), built_path.end()).first -
          path.begin());
      built.erase(built.begin() + static_cast<std::ptrdiff_t>(shared) + 1, built.end());
      built_path.assign(path.begin(), path.end());
      for (std::size_t k = shared; k < path.size(); ++k) {
        built.push_back(built.back());
        built.back().run(path[k]);
      }
      const Wire& here = built.back();
      for (const Step& step : kAlphabet) {
        if (!here.enabled(step, kMessages)) continue;
        Wire next = here;
        next.run(step);
        if (const std::string why = next.broken(); !why.empty()) {
          path.push_back(step);
          FAIL() << why << " after " << depth << " steps; as a row:\n" << as_row(path, next);
        }
        if (!seen.insert(next.fingerprint()).second) continue;
        gave_up |= step.op == Op::fail && !next.sender();
        closed |= step.op == Op::close && next.counts.discarded > 0;
        crashed |= step.op == Op::crash_sender && next.counts.abandoned > 0;
        refused |= step.op == Op::send && next.counts.outage_dropped > 0;
        expired |= next.counts.expired > 0;
        dropped |= next.counts.unacked_dropped > 0;
        rehandshake |= next.sender() && next.sender()->phase() == Phase::handshake;
        states.push_back({i, step});
      }
    }
    level = level_end;
  }
  EXPECT_TRUE(gave_up && closed && crashed && refused && expired && dropped && rehandshake);
  RecordProperty("depth", kDepth);
  RecordProperty("states", static_cast<int>(states.size()));
  std::cout << "explored " << states.size() << " states to depth " << kDepth << "\n";
}

}  // namespace
}  // namespace umiddle::core
