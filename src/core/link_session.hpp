// Per-link sequencing of the UMTP delivery contract (DESIGN.md §11.1), kept
// apart from the streams that carry it.
//
// A LinkSession is pure state: no streams, timers, metrics or tracing. The
// transport hands it encoded frames and virtual time, writes the frames it
// hands back, and records the counts it returns. That makes the RESUME/ACK/SEQ
// rules drivable without a simulated network (tests/link_session_test.cpp).
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
  /// Sender half: the send ledger of one outbound node link.
  class Sender {
   public:
    /// A stream of the link opened as `channel`. The first one donates its
    /// world-unique id as the link epoch, under which the peer's dedup count
    /// implicitly lives.
    void open(std::uint64_t channel) {
      if (epoch_ == 0) epoch_ = count_home_ = channel;
    }
    std::uint64_t epoch() const { return epoch_; }
    /// Oldest sequence number not yet retired (next_seq + 1 if none).
    std::uint64_t base_seq() const { return ledger_.empty() ? next_seq_ + 1 : ledger_.front().seq; }
    /// The RESUME that opens a recovery handshake. Until the peer's ACK
    /// answers it the link is resuming: new traffic buffers as unsent until
    /// the peer says where to resume.
    umtp::ResumeFrame resume(NodeId self) {
      resuming_ = true;
      return umtp::ResumeFrame{self, epoch_, count_home_, base_seq()};
    }
    bool resuming() const { return resuming_; }

    /// Give the next frame the next sequence number: `sent` if the caller has
    /// just written it to the link's stream, else held until the link is
    /// ready. False: an unsent frame refused, because the unsent frames would
    /// exceed `cap` bytes.
    bool push(PayloadPtr frame, std::int64_t deadline_ns, bool sent, std::size_t cap);
    /// Initial handshake done: every unsent frame becomes sent; the caller
    /// writes the returned frames in order.
    std::vector<PayloadPtr> flush();
    /// Retire sent frames, oldest first, while retained sent bytes exceed
    /// `budget`.
    void trim(std::size_t budget);

    struct Acked {
      std::uint64_t retired = 0;          ///< sent frames the ACK retired
      std::uint64_t unacked_dropped = 0;  ///< sent frames dropped for a restarted peer
      bool resumed = false;               ///< it answered the RESUME: recovery is done
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

    std::uint64_t next_seq_ = 0;    ///< last assigned sequence number
    std::uint64_t epoch_ = 0;       ///< id of the link's first stream (world-unique)
    std::uint64_t count_home_ = 0;  ///< channel confirmed to hold the peer's dedup count
    bool resuming_ = false;         ///< RESUME sent, ACK not yet received
    std::size_t unsent_bytes_ = 0;  ///< handshake/outage buffer occupancy
    std::size_t sent_bytes_ = 0;    ///< sent-but-unacknowledged retention occupancy
    Ledger ledger_;                 ///< seq-ordered: sent prefix, unsent suffix
  };

  /// Receiver half: dedup counts for every inbound link of one runtime, keyed
  /// by the sender's client stream id (the channel).
  class Receiver {
   public:
    /// A plain payload frame arrived on `channel`: count it implicitly.
    void count(std::uint64_t channel) { links_[channel].count += 1; }
    /// A SEQ-wrapped replay arrived. True: new, and counted; false: already
    /// accepted, so suppress it.
    bool accept(std::uint64_t channel, std::uint64_t seq) {
      Link& link = links_[channel];
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

   private:
    struct Link {
      std::uint64_t count = 0;  ///< frames accepted from this link so far
      std::uint64_t epoch = 0;  ///< sender's link epoch, learned via RESUME (0 = unknown)
    };

    /// Values only, never iterated (safe to keep unordered).
    std::unordered_map<std::uint64_t, Link> links_;
    /// Sender node → channel its count last migrated to via RESUME. Fallback
    /// for the sender's prev-channel hint being one recovery stale (its
    /// previous RESUME was processed but the ACK was lost to a second cut).
    std::map<NodeId, std::uint64_t> home_;
  };
};

}  // namespace umiddle::core
