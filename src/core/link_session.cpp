#include "core/link_session.hpp"

#include <algorithm>

namespace umiddle::core {

// --- sender ------------------------------------------------------------------------

std::vector<PayloadPtr> LinkSession::Sender::up(NodeId self) {
  std::vector<PayloadPtr> out;
  if (phase_ == Phase::handshake) {
    // Initial handshake done: every held frame becomes sent, written in order
    // as plain frames, byte-identical to the pre-contract outbox replay.
    phase_ = Phase::up;
    for (Entry& e : ledger_) {
      mark_sent(e);
      out.push_back(e.frame);
    }
  } else if (phase_ == Phase::reopening) {
    // Fault recovery: ask the peer where we left off before replaying anything.
    phase_ = Phase::resuming;
    const umtp::ResumeFrame resume{self, epoch_, count_home_, base_seq()};
    out.push_back(make_payload(umtp::encode(umtp::Frame{resume})));
  }
  return out;
}

auto LinkSession::Sender::reset() -> Retry {
  Retry retry{.recovery_begins = travels_plain()};
  phase_ = Phase::down;
  attempts_ += 1;
  if (attempts_ > limits_.max_attempts) return retry;  // give up
  retry.attempt = attempts_;
  const int exponent = std::min(attempts_ - 1, 30);
  retry.backoff_ns = std::min(limits_.reconnect_base_ns << exponent, limits_.reconnect_cap_ns);
  return retry;
}

auto LinkSession::Sender::push(PayloadPtr frame, std::int64_t deadline_ns) -> Push {
  const bool write = phase_ == Phase::up;
  // Once the link has been reset the unsent ledger suffix is a *bounded*
  // degradation buffer; during the initial handshake it stays unbounded
  // (pre-fault semantics).
  if (!write && phase_ != Phase::handshake &&
      unsent_bytes_ + frame->size() > limits_.outage_bytes) {
    return Push::refuse;
  }
  (write ? sent_bytes_ : unsent_bytes_) += frame->size();
  ledger_.push_back(Entry{++next_seq_, deadline_ns, std::move(frame), write});
  return write ? Push::write : Push::hold;
}

auto LinkSession::Sender::retire(Ledger::iterator it) -> Ledger::iterator {
  (it->sent ? sent_bytes_ : unsent_bytes_) -= it->frame->size();
  return ledger_.erase(it);
}

void LinkSession::Sender::mark_sent(Entry& e) {
  if (e.sent) return;
  e.sent = true;
  unsent_bytes_ -= e.frame->size();
  sent_bytes_ += e.frame->size();
}

void LinkSession::Sender::trim(std::size_t backlog) {
  if (phase_ != Phase::up) return;
  // Retain at least the stream's own unsent backlog — those bytes are exactly
  // what a reset loses — plus the configured slack for frames already on the
  // medium. Anything older has long been delivered on the lossless stream.
  while (sent_bytes_ > limits_.retain_bytes + backlog && !ledger_.empty() &&
         ledger_.front().sent) {
    retire(ledger_.begin());
  }
}

std::optional<LinkSession::Sender::Acked> LinkSession::Sender::ack(std::uint64_t epoch,
                                                                   std::uint64_t count,
                                                                   std::uint64_t channel,
                                                                   std::int64_t now_ns) {
  if (epoch != epoch_) return std::nullopt;  // stale or forged incarnation
  Acked out;
  // The ACK confirms the peer migrated (or kept) its count under the stream
  // that carried it: the next RESUME's prev-channel hint.
  count_home_ = channel;
  std::uint64_t peer_count = 0;  // frames the peer has accepted after the handshake
  if (count == umtp::kAckCountUnknown) {
    // A restarted peer realigned itself to base_seq - 1 (Receiver::resume).
    // The ledger front is stable between RESUME and ACK, and frames buffered
    // meanwhile continue the sequence, so base_seq here is the one the
    // RESUME carried.
    peer_count = base_seq() - 1;
    // The peer lost its dedup window: the sent-but-unacked prefix was either
    // delivered before the crash or died with it. Replaying it could only
    // duplicate, so it is dropped (at-most-once across receiver crashes).
    while (!ledger_.empty() && ledger_.front().sent) {
      retire(ledger_.begin());
      out.unacked_dropped += 1;
    }
  } else {
    // Clamp against an ack-count lie: the peer can never have accepted more
    // frames than were ever assigned.
    peer_count = std::min(count, next_seq_);
    while (!ledger_.empty() && ledger_.front().seq <= peer_count) {
      if (ledger_.front().sent) out.retired += 1;
      retire(ledger_.begin());
    }
  }
  if (phase_ == Phase::resuming) {
    // The ACK ends the recovery.
    phase_ = Phase::up;
    attempts_ = 0;
    out.resumed = true;
    replay_rest(peer_count, now_ns, out);
  }
  return out;
}

void LinkSession::Sender::replay_rest(std::uint64_t peer_count, std::int64_t now_ns, Acked& out) {
  // The peer's count after the last replayed frame lands. Gaps from retired
  // (expired / unacked-dropped) entries *inside* the replay self-heal — SEQ
  // frames carry explicit numbers — but a trailing gap would desync the
  // implicit counting that resumes afterwards.
  std::uint64_t last_seq = peer_count;
  for (auto it = ledger_.begin(); it != ledger_.end();) {
    Entry& e = *it;
    if (deadline_passed(e.deadline_ns, now_ns)) {
      // Stale by its own contract: retire instead of replaying late.
      out.expired += 1;
      it = retire(it);
      continue;
    }
    mark_sent(e);
    out.replay.push_back(umtp::encode_seq(e.seq, *e.frame));
    last_seq = e.seq;
    ++it;
  }
  // Keep wire sequence numbers dense: the next plain frame is counted
  // implicitly as last_seq + 1, so next_seq must land exactly there. Seqs
  // skipped by a trailing retired entry (or a whole dropped prefix with
  // nothing left to replay) are provably uncounted by the peer — a counted
  // frame would have been acked and retired — so reusing them is safe.
  next_seq_ = last_seq;
}

std::size_t LinkSession::Sender::unsent_count() const {
  return static_cast<std::size_t>(
      std::count_if(ledger_.begin(), ledger_.end(), [](const Entry& e) { return !e.sent; }));
}

// --- receiver ----------------------------------------------------------------------

LinkSession::Receiver::Resumed LinkSession::Receiver::resume(const umtp::ResumeFrame& resume,
                                                             std::uint64_t channel) {
  // Find the sender's count: the prev-channel hint first, then the node-keyed
  // home (covers a lost ACK — the previous migration happened but the sender
  // never learned of it). Epoch guards both against counts from an earlier
  // link incarnation of a restarted node.
  auto it = links_.find(resume.prev_channel);
  const bool hinted =
      it != links_.end() && (it->second.epoch == 0 || it->second.epoch == resume.epoch);
  if (!hinted) {
    auto home = home_.find(resume.node);
    it = home == home_.end() ? links_.end() : links_.find(home->second);
    if (it != links_.end() && it->second.epoch != resume.epoch) it = links_.end();
  }
  const bool found = it != links_.end();
  Link state = found ? it->second : Link{};
  if (found) links_.erase(it);
  // A realigned count is known only if the sender learned of it. The hint
  // names the channel of the last ACK the sender received, so a hint that
  // finds the count means the "count unknown" ACK arrived and the sender
  // dropped its sent prefix then: what it sent since, none of which arrived,
  // can be replayed. Found through the node home, that ACK may have been
  // lost, and a replay of the prefix could repeat what was delivered before
  // the restart.
  const bool known = found && (!state.realigned || hinted);
  state.epoch = resume.epoch;
  state.realigned = !known;
  Resumed out;
  if (!known) {
    // Restarted since this epoch began: no dedup state to resume from. Align
    // with the sender's retained window for future SEQ replays, and tell it
    // not to replay its sent-but-unacked prefix (at-most-once across receiver
    // crashes, DESIGN.md §11).
    state.count = resume.base_seq == 0 ? 0 : resume.base_seq - 1;
  } else if (state.count + 1 < resume.base_seq) {
    // The sender retired frames this side never accepted (retention overflow):
    // they are unrecoverable. Jump forward so dedup stays aligned.
    out.gap = true;
    state.count = resume.base_seq - 1;
  }
  links_[channel] = state;
  home_[resume.node] = channel;
  out.ack_count = known ? state.count : umtp::kAckCountUnknown;
  return out;
}

}  // namespace umiddle::core
