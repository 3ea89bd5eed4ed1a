// Per-link sequencing and link lifecycle of the UMTP delivery contract
// (DESIGN.md §10.2, §11.1), kept apart from the streams that carry it.
//
// A LinkSession is pure state: no streams, timers, metrics or tracing (lint
// rule `netsim-free-session`). The transport hands it stream events, encoded
// frames and virtual time, writes the frames it hands back, arms the backoffs
// it asks for, and records the counts it returns. That makes the lifecycle and
// the RESUME/ACK/SEQ rules drivable, and exhaustively explorable, without a
// simulated network (tests/link_session_test.cpp).
//
// Sequence numbers are per link and 1-based. They stay implicit on the healthy
// path — both ends count frames on a lossless ordered stream — and appear on
// the wire only when a recovery replay wraps a frame in a SEQ envelope.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/umtp.hpp"

namespace umiddle::core {

struct LinkSession {
  /// Sender half: the send ledger and lifecycle of one outbound node link
  /// (DESIGN.md §10.2). It makes every lifecycle decision; the transport feeds
  /// it stream events and carries out what each one hands back.
  class Sender {
   public:
    /// RuntimeConfig's reconnect and buffer limits, in plain units.
    struct Limits {
      std::int64_t reconnect_base_ns = 0;
      std::int64_t reconnect_cap_ns = 0;
      int max_attempts = 0;          ///< failed attempts tolerated before giving up
      std::size_t outage_bytes = 0;  ///< unsent bytes held once the link was reset
      std::size_t retain_bytes = 0;  ///< sent bytes retained beyond the stream backlog
    };
    explicit Sender(Limits limits) : limits_(limits) {}

    enum class Phase : std::uint8_t {
      handshake,  ///< the initial connect is in flight; the buffer is unbounded
      up,         ///< frames are written as they come
      down,       ///< the stream was reset; a backoff is armed
      reopening,  ///< a reconnect stream is in flight
      resuming,   ///< RESUME sent, its ACK not yet received
    };
    Phase phase() const { return phase_; }
    /// A frame pushed now goes out plain on the current stream, at once or in
    /// the handshake flush, not SEQ-wrapped in a later replay.
    bool travels_plain() const { return phase_ == Phase::handshake || phase_ == Phase::up; }

    /// A stream of the link opened as `channel`: the initial connect, or a
    /// reconnect attempt. The first one donates its world-unique id as the
    /// link epoch, under which the peer's dedup count implicitly lives.
    void open(std::uint64_t channel) {
      phase_ = epoch_ == 0 ? Phase::handshake : Phase::reopening;
      if (epoch_ == 0) epoch_ = count_home_ = channel;
    }
    std::uint64_t epoch() const { return epoch_; }
    /// Oldest sequence number not yet retired (next_seq + 1 if none).
    std::uint64_t base_seq() const { return ledger_.empty() ? next_seq_ + 1 : ledger_.front().seq; }
    /// The stream came up; write the returned frames in order. After the
    /// initial handshake they are the held frames and the link is up; after a
    /// reconnect, the RESUME from `self`, and the link is resuming.
    std::vector<PayloadPtr> up(NodeId self);

    struct Retry {
      bool recovery_begins = false;  ///< the link was handshake or up
      int attempt = 0;               ///< backoff attempt k >= 1; 0 = give up
      std::int64_t backoff_ns = 0;   ///< un-jittered min(base * 2^(k-1), cap)
      bool give_up() const { return attempt == 0; }
    };
    /// The stream was reset, or a reconnect attempt could not open one: arm
    /// the next backoff attempt, or give up.
    Retry reset();

    enum class Push : std::uint8_t { write, hold, refuse };
    /// Give the next frame the next sequence number. Write it to the stream
    /// now; hold it for the flush or the replay; or refuse it (the outage
    /// buffer is full).
    Push push(PayloadPtr frame, std::int64_t deadline_ns);
    /// While up, retire sent frames, oldest first, while retained sent bytes
    /// exceed the retention budget plus `backlog`, the stream's unsent bytes.
    void trim(std::size_t backlog);

    struct Acked {
      std::uint64_t retired = 0;          ///< sent frames the ACK retired
      std::uint64_t unacked_dropped = 0;  ///< sent frames dropped for a restarted peer
      bool resumed = false;               ///< it answered the RESUME: the link is up
      std::vector<Bytes> replay;          ///< SEQ-wrapped frames to write, in order
      std::uint64_t expired = 0;          ///< entries retired unreplayed: deadline passed
    };
    /// The peer's cumulative ACK for `epoch` arrived on stream `channel` at
    /// `now_ns`. It retires what it acknowledges; if it answers the RESUME,
    /// the rest is SEQ-wrapped for replay, minus expired entries, and the
    /// sequence realigns with the peer's count. Nullopt: a stale or forged
    /// epoch, ignored.
    std::optional<Acked> ack(std::uint64_t epoch, std::uint64_t count, std::uint64_t channel,
                             std::int64_t now_ns);

    /// Frames never written to any stream: what giving up on the link loses.
    std::size_t unsent_count() const;
    /// Frames written to a stream and still in the ledger: unacknowledged, or
    /// acknowledged implicitly but not yet trimmed.
    std::size_t sent_count() const { return ledger_.size() - unsent_count(); }

    /// Reads the whole state to hash it (tests/link_session_test.cpp).
    friend struct LinkSessionProbe;

   private:
    struct Entry {
      std::uint64_t seq = 0;
      std::int64_t deadline_ns = 0;  ///< 0 = none; expired entries are never replayed
      PayloadPtr frame;              ///< length-prefixed encoded frame
      bool sent = false;
    };

    using Ledger = std::deque<Entry>;

    Ledger::iterator retire(Ledger::iterator it);
    void mark_sent(Entry& e);
    void replay_rest(std::uint64_t peer_count, std::int64_t now_ns, Acked& out);

    Limits limits_;
    Phase phase_ = Phase::handshake;
    int attempts_ = 0;              ///< consecutive failed reconnect attempts
    std::uint64_t next_seq_ = 0;    ///< last assigned sequence number
    std::uint64_t epoch_ = 0;       ///< id of the link's first stream (world-unique)
    std::uint64_t count_home_ = 0;  ///< channel confirmed to hold the peer's dedup count
    std::size_t unsent_bytes_ = 0;  ///< handshake/outage buffer occupancy
    std::size_t sent_bytes_ = 0;    ///< sent-but-unacknowledged retention occupancy
    Ledger ledger_;                 ///< seq-ordered: sent prefix, unsent suffix
  };

  /// Receiver half: dedup counts for every inbound link of one runtime, keyed
  /// by the sender's client stream id (the channel).
  class Receiver {
   public:
    /// A stream was accepted on `channel`: its count starts at 0, so a RESUME
    /// after a reset that beat the first frame finds a count and is not taken
    /// for one after a restart.
    void open(std::uint64_t channel) { links_.try_emplace(channel); }
    /// A plain payload frame arrived on `channel`: count it implicitly.
    void count(std::uint64_t channel) {
      Link& link = links_[channel];
      link.count += 1;
      link.realigned = false;
    }
    /// A SEQ-wrapped replay arrived. True: new, and counted; false: already
    /// accepted, so suppress it.
    bool accept(std::uint64_t channel, std::uint64_t seq) {
      Link& link = links_[channel];
      link.realigned = false;
      if (seq <= link.count) return false;
      link.count = seq;
      return true;
    }

    struct Resumed {
      std::uint64_t ack_count = 0;  ///< count to ACK, or umtp::kAckCountUnknown
      /// The sender retired frames this side never accepted: the count jumped
      /// forward to base_seq - 1.
      bool gap = false;
    };
    /// Migrate the sender's count to the RESUME's new `channel`.
    Resumed resume(const umtp::ResumeFrame& resume, std::uint64_t channel);
    /// The channel closed gracefully: a later link from the same node starts
    /// a fresh sequence space.
    void forget(std::uint64_t channel) {
      links_.erase(channel);
      std::erase_if(home_, [channel](const auto& entry) { return entry.second == channel; });
    }
    /// Reads the whole state to hash it (tests/link_session_test.cpp).
    friend struct LinkSessionProbe;

   private:
    struct Link {
      std::uint64_t count = 0;  ///< frames accepted from this link so far
      std::uint64_t epoch = 0;  ///< sender's link epoch, learned via RESUME (0 = unknown)
      /// The count was realigned to a sender's base, and no frame arrived
      /// since: the "count unknown" ACK that answered may have been lost.
      bool realigned = false;
    };

    /// Never iterated in order (safe to keep unordered).
    std::unordered_map<std::uint64_t, Link> links_;
    /// Sender node → channel its count last migrated to via RESUME. Fallback
    /// for the sender's prev-channel hint being one recovery stale (its
    /// previous RESUME was processed but the ACK was lost to a second cut).
    std::map<NodeId, std::uint64_t> home_;
  };
};

}  // namespace umiddle::core
