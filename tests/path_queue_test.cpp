// Model test of one path's translation buffer (core/path_queue.hpp), with no
// net::Network and no Scheduler. The Model below makes the calls Transport
// makes: Block admission through refuses() and then offer() for an emit,
// next() with the destination ready or stalled, finish() when the translation
// cost is paid, unbind() when a destination translator goes away. It records
// every message's fate from the sink, and what finish() hands over as taken.
//
// Two suites share the Model. Each hand-written Row scripts the ops for one
// QoS policy and pins where every message ended up. The explorer runs every
// interleaving of the op alphabet for six messages under each ShedPolicy
// with a small cap and under one shaped, TTL'd path, breadth first with
// duplicate states merged, and checks the buffer's invariants after every
// step; a violation prints as a ready-to-paste Row.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/path_queue.hpp"

namespace umiddle::core {

/// The explorer's view of the queue's private state.
struct PathQueueProbe {
  static const std::deque<PathQueue::Item>& items(const PathQueue& q) { return q.items_; }
  static const std::optional<PathQueue::Item>& translating(const PathQueue& q) {
    return q.translating_;
  }
  /// The shaper's tokens at `now`, read from a copy: refilling the live
  /// bucket would change its rounding history.
  static double tokens(const PathQueue& q, Nanos now) {
    if (!q.bucket_) return 0;
    TokenBucket copy = *q.bucket_;
    return copy.tokens(now);
  }
};

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

enum class Op : std::uint8_t {
  OfferA,       ///< offer a 100 B message to destination A
  OfferB,       ///< offer a 150 B message to destination B
  OfferShort,   ///< offer to A with its own deadline kShort from now
  OfferStale,   ///< offer to A with its own deadline now: expired on arrival
  Advance,      ///< virtual time moves on by kShort, past every short deadline
  NextReady,    ///< next() with the front's destination ready
  NextStalled,  ///< next() with the front's destination stalled
  Finish,       ///< the translation cost is paid: finish()
  UnbindA,      ///< destination A's translator is unmapped
};
using enum Op;

constexpr const char* kOpNames[] = {"OfferA",      "OfferB", "OfferShort", "OfferStale",
                                    "Advance",     "NextReady", "NextStalled", "Finish",
                                    "UnbindA"};

std::ostream& operator<<(std::ostream& os, Op op) {
  return os << kOpNames[static_cast<std::size_t>(op)];
}

/// The explored policies: each ShedPolicy with room for 250 B (an A and a B,
/// or two As), and a shaped, TTL'd path.
enum class Cfg : std::uint8_t { drop_newest, drop_oldest, latest_only, block, shaped_ttl };
constexpr const char* kCfgNames[] = {"drop_newest", "drop_oldest", "latest_only", "block",
                                     "shaped_ttl"};

constexpr std::size_t kSizeA = 100;
constexpr std::size_t kSizeB = 150;
constexpr std::size_t kCap = 250;
constexpr Nanos kShort{10};
/// Where virtual time starts: not at 0, which as a deadline means none.
constexpr Nanos kStart{100};

QosPolicy policy(Cfg cfg) {
  QosPolicy qos;
  qos.max_buffered_bytes = kCap;
  switch (cfg) {
    case Cfg::drop_newest: qos.shed = ShedPolicy::drop_newest; break;
    case Cfg::drop_oldest: qos.shed = ShedPolicy::drop_oldest; break;
    case Cfg::latest_only: qos.shed = ShedPolicy::latest_only; break;
    case Cfg::block: qos.shed = ShedPolicy::block; break;
    case Cfg::shaped_ttl:
      // 20 B/ns refills a B's worth of burst in one Advance; the TTL is two.
      qos.shed = ShedPolicy::drop_oldest;
      qos.rate_bytes_per_sec = 2e10;
      qos.burst_bytes = kSizeB;
      qos.message_ttl = 2 * kShort;
      break;
  }
  return qos;
}

const PortRef kA{TranslatorId(1), "in"};
const PortRef kB{TranslatorId(2), "in"};

constexpr const char* kFateNames[] = {
    "blocked",   "shed_newest", "shed_oldest",    "shed_latest",     "expired",  "quarantined",
    "unmapped",  "no_route",    "outage_dropped", "unacked_dropped", "discarded"};

class Model {
 public:
  explicit Model(Cfg cfg) : cfg_(cfg), qos_(policy(cfg)), queue_(qos_) {}

  /// Whether `op` can happen here: at most kMessages offers and kAdvances
  /// advances, so the explored space is finite.
  bool enabled(Op op, std::size_t messages, int advances) const {
    if (op == Advance) return now_ < kStart + advances * kShort;
    if (op == OfferA || op == OfferB || op == OfferShort || op == OfferStale) {
      return offered_ < messages;
    }
    return true;
  }

  void run(Op op) {
    switch (op) {
      case OfferA: offer(kA, kSizeA, 0); break;
      case OfferB: offer(kB, kSizeB, 0); break;
      case OfferShort: offer(kA, kSizeA, (now_ + kShort).count()); break;
      case OfferStale: offer(kA, kSizeA, now_.count()); break;
      case Advance: now_ += kShort; break;
      case NextReady: next(true); break;
      case NextStalled: next(false); break;
      case Finish:
        if (auto item = queue_.finish(now_, sink())) {
          if (deadline_passed(item->deadline_ns, now_.count())) {
            fault("message " + std::to_string(item->msg->trace) + " finished past its deadline");
          }
          taken_.at(item->msg->trace) = true;
        }
        break;
      case UnbindA: queue_.unbind(kA.translator, sink()); break;
    }
  }

  /// The invariants, checked after every step; empty when they hold.
  std::string broken() const {
    if (!fault_.empty()) return fault_;
    const auto& items = PathQueueProbe::items(queue_);
    const auto& translating = PathQueueProbe::translating(queue_);
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      bytes += items[k].msg->payload.size();
      if (k > 0 && items[k - 1].msg->trace >= items[k].msg->trace) {
        return "queued order is not offer order at message " +
               std::to_string(items[k].msg->trace);
      }
    }
    if (bytes != queue_.bytes()) {
      return "bytes() is " + std::to_string(queue_.bytes()) + ", the queued payloads " +
             std::to_string(bytes);
    }
    if (queue_.bytes() > kCap) return "bytes() " + std::to_string(queue_.bytes()) + " over the cap";
    for (std::uint64_t id = 1; id <= offered_; ++id) {
      std::size_t places = fates_[id].size() + (taken_[id] ? 1 : 0);
      places += (translating && translating->msg->trace == id) ? 1 : 0;
      for (const PathQueue::Item& item : items) places += item.msg->trace == id ? 1 : 0;
      if (places != 1) {
        return "message " + std::to_string(id) + " is in " + std::to_string(places) +
               " places: " + where(id);
      }
    }
    return {};
  }

  /// Where every offered message is, as a Row spells it.
  std::string outcome() const {
    std::string out;
    for (std::uint64_t id = 1; id <= offered_; ++id) {
      if (id != 1) out += ' ';
      out += std::to_string(id);
      out += ':';
      out += where(id);
    }
    return out;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = mix(mix(static_cast<std::uint64_t>(now_.count()), offered_),
                          std::bit_cast<std::uint64_t>(PathQueueProbe::tokens(queue_, now_)));
    for (const PathQueue::Item& item : PathQueueProbe::items(queue_)) {
      h = mix(mix(mix(h, item.msg->trace), item.dst.translator.value()),
              static_cast<std::uint64_t>(item.deadline_ns));
    }
    if (const auto& t = PathQueueProbe::translating(queue_)) {
      h = mix(mix(h, ~t->msg->trace), static_cast<std::uint64_t>(t->deadline_ns));
    }
    return h;
  }

  std::size_t count(Fate fate) const { return reached_[static_cast<std::size_t>(fate)]; }
  std::size_t taken() const { return std::count(taken_.begin(), taken_.end(), true); }
  bool waited() const { return waited_; }

 private:
  /// The queue's fate sink: records each fate against its message.
  struct Sink {
    Model* model;
    void operator()(Fate fate, const Message& msg) const { model->record(fate, msg.trace); }
  };
  Sink sink() { return {this}; }

  void record(Fate fate, std::uint64_t id) {
    fates_.at(id).push_back(fate);
    reached_[static_cast<std::size_t>(fate)] += 1;
    if (cfg_ == Cfg::block && fate != Fate::blocked && fate != Fate::expired &&
        fate != Fate::unmapped) {
      fault("the Block policy shed message " + std::to_string(id) + " as " +
            kFateNames[static_cast<std::size_t>(fate)]);
    }
  }

  void fault(std::string why) {
    if (fault_.empty()) fault_ = std::move(why);
  }

  std::string where(std::uint64_t id) const {
    std::vector<std::string> places;
    for (Fate fate : fates_[id]) places.emplace_back(kFateNames[static_cast<std::size_t>(fate)]);
    if (taken_[id]) places.emplace_back("taken");
    const auto& translating = PathQueueProbe::translating(queue_);
    if (translating && translating->msg->trace == id) places.emplace_back("translating");
    for (const PathQueue::Item& item : PathQueueProbe::items(queue_)) {
      if (item.msg->trace == id) places.emplace_back("queued");
    }
    std::string out;
    for (const std::string& place : places) out += (out.empty() ? "" : "+") + place;
    return out.empty() ? "lost" : out;
  }

  void offer(const PortRef& dst, std::size_t size, std::int64_t deadline_ns) {
    auto msg = std::make_shared<Message>();
    msg->payload = Bytes(size);
    msg->trace = ++offered_;
    msg->deadline_ns = deadline_ns;
    fates_.emplace_back();
    taken_.push_back(false);
    // Transport's route(): Block admission over the emit's fan-out (one
    // destination here), then the offer.
    if (queue_.refuses(*msg, 1, now_)) {
      if (deadline_passed(qos_.deadline(deadline_ns, now_), now_.count())) {
        fault("Block refused message " + std::to_string(msg->trace) +
              ", already past its deadline: a retrying producer would spin forever");
      }
      record(Fate::blocked, msg->trace);
      return;
    }
    const std::size_t shed_before = count(Fate::shed_latest);
    queue_.offer(dst, msg, now_, sink());
    if (count(Fate::shed_latest) == shed_before) return;
    for (const PathQueue::Item& item : PathQueueProbe::items(queue_)) {
      if (item.dst == dst && item.msg->trace < msg->trace) {
        fault("a latest_only offer that shed left older message " +
              std::to_string(item.msg->trace) + " for its destination");
      }
    }
  }

  void next(bool ready) {
    const PathQueue::Next next =
        queue_.next(now_, [ready](const PortRef&) { return ready; }, sink());
    waited_ |= next.wait > Nanos(0);
    if (next.taken != nullptr && deadline_passed(next.taken->deadline_ns, now_.count())) {
      fault("message " + std::to_string(next.taken->msg->trace) + " taken past its deadline");
    }
  }

  Cfg cfg_;
  QosPolicy qos_;
  PathQueue queue_;
  Nanos now_ = kStart;
  std::uint64_t offered_ = 0;
  /// Per message id (index 0 unused): its fates, and whether it was taken.
  std::vector<std::vector<Fate>> fates_{{}};
  std::vector<bool> taken_{false};
  std::size_t reached_[kFateCount] = {};
  bool waited_ = false;
  std::string fault_;
};

// --- hand-written rows ---------------------------------------------------------------

struct Row {
  const char* name;
  Cfg cfg;
  std::vector<Op> script;
  /// Where each message ended, in offer order: queued, translating, taken,
  /// or its fate.
  const char* outcome;
};

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {"a_block_retires_an_expired_offer_instead_of_refusing",
       Cfg::block,
       {OfferA, OfferB,  // full
        OfferStale,      // needs no room: expired, not refused
        OfferA},         // a live message is refused whole
       "1:queued 2:queued 3:expired 4:blocked"},
      {"b_drop_newest_sheds_the_newcomer",
       Cfg::drop_newest,
       {OfferA, OfferB, OfferA},
       "1:queued 2:queued 3:shed_newest"},
      {"c_drop_oldest_evicts_from_the_front_until_it_fits",
       Cfg::drop_oldest,
       {OfferA, OfferB, OfferB},
       "1:shed_oldest 2:shed_oldest 3:queued"},
      {"d_latest_only_supersedes_its_destination_first",
       Cfg::latest_only,
       {OfferA, OfferB, OfferA},
       "1:shed_latest 2:queued 3:queued"},
      {"e_a_stalled_destination_cannot_pin_an_expired_front",
       Cfg::shaped_ttl,
       {OfferA, NextStalled, Advance, Advance, NextReady},
       "1:expired"},
      {"f_a_deadline_can_pass_during_translation",
       Cfg::drop_newest,
       {OfferShort, NextReady, Advance, Finish},
       "1:expired"},
      {"g_unbind_spares_the_item_in_translation",
       Cfg::drop_oldest,
       {OfferA, NextReady, OfferA, OfferB, UnbindA, Finish},
       "1:taken 2:unmapped 3:queued"},
      {"h_the_shaper_holds_the_front_until_tokens_refill",
       Cfg::shaped_ttl,
       {OfferB, NextReady, Finish,  // the burst is spent
        OfferA, NextReady,          // held for the shaper
        Advance, NextReady},        // refilled
       "1:taken 2:translating"},
  };
  return table;
}

// Keeps ctest names stable: without it gtest prints the row's raw bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class PathQueueModel : public ::testing::TestWithParam<Row> {};

TEST_P(PathQueueModel, EveryMessageEndsWhereTheRowSays) {
  const Row& row = GetParam();
  Model model(row.cfg);
  for (std::size_t i = 0; i < row.script.size(); ++i) {
    model.run(row.script[i]);
    ASSERT_EQ(model.broken(), "") << "after step " << i << " (" << row.script[i] << ")";
  }
  EXPECT_EQ(model.outcome(), row.outcome);
}

INSTANTIATE_TEST_SUITE_P(Rows, PathQueueModel, ::testing::ValuesIn(rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

TEST(PathQueue, DiscardReportsEverythingHeldOnce) {
  PathQueue queue(policy(Cfg::drop_oldest));
  std::vector<std::uint64_t> discarded;
  auto sink = [&](Fate fate, const Message& msg) {
    EXPECT_EQ(fate, Fate::discarded);
    discarded.push_back(msg.trace);
  };
  auto message = [](std::uint64_t trace) {
    auto msg = std::make_shared<Message>();
    msg->payload = Bytes(kSizeA);
    msg->trace = trace;
    return msg;
  };
  ASSERT_TRUE(queue.offer(kA, message(1), Nanos(0), sink));
  ASSERT_TRUE(queue.offer(kB, message(2), Nanos(0), sink));
  ASSERT_NE(queue.next(Nanos(0), [](const PortRef&) { return true; }, sink).taken, nullptr);
  queue.discard(sink);
  EXPECT_EQ(discarded, (std::vector<std::uint64_t>{2, 1}));  // queued, then in translation
  EXPECT_EQ(queue.high_water(), 2 * kSizeA);
}

// --- bounded exhaustive exploration -------------------------------------------------

const std::vector<Op> kAlphabet = {OfferA,    OfferB,      OfferShort, OfferStale, Advance,
                                   NextReady, NextStalled, Finish,     UnbindA};
constexpr std::size_t kMessages = 6;
constexpr int kAdvances = 3;
constexpr int kDepth = 16;

/// One explored state: the op that first reached it, from state `parent`.
struct Explored {
  std::size_t parent;
  Op op;
};

std::vector<Op> path_to(const std::vector<Explored>& states, std::size_t i) {
  std::vector<Op> path;
  for (; i != 0; i = states[i].parent) path.push_back(states[i].op);
  std::reverse(path.begin(), path.end());
  return path;
}

/// `script` and where it ended, as a Row that replays it.
std::string as_row(Cfg cfg, const std::vector<Op>& script, const Model& end) {
  std::ostringstream row;
  row << "{\"explored_" << script.size() << "_steps\",\n Cfg::"
      << kCfgNames[static_cast<std::size_t>(cfg)] << ",\n {";
  for (std::size_t i = 0; i < script.size(); ++i) row << (i == 0 ? "" : ", ") << script[i];
  row << "},\n \"" << end.outcome() << "\"},";
  return row.str();
}

// Failure messages name a policy by its name.
void PrintTo(Cfg cfg, std::ostream* os) { *os << kCfgNames[static_cast<std::size_t>(cfg)]; }

class PathQueueExplorer : public ::testing::TestWithParam<Cfg> {};

TEST_P(PathQueueExplorer, EveryInterleavingKeepsTheInvariants) {
  const Cfg cfg = GetParam();
  // Breadth first; a level keeps its states whole, so nothing is replayed.
  std::vector<Explored> states{{0, OfferA}};  // the root; its op is unused
  std::vector<std::pair<std::size_t, Model>> level{{0, Model(cfg)}};
  std::unordered_set<std::uint64_t> seen{level.front().second.fingerprint()};
  // What the search must reach, or it proves little.
  bool shed = false, blocked = false, expired = false, unmapped = false, taken = false,
       waited = false;
  int depth = 0;
  while (!level.empty() && depth < kDepth) {
    ++depth;
    std::vector<std::pair<std::size_t, Model>> deeper;
    for (const auto& [index, here] : level) {
      for (Op op : kAlphabet) {
        if (!here.enabled(op, kMessages, kAdvances)) continue;
        Model next = here;
        next.run(op);
        if (const std::string why = next.broken(); !why.empty()) {
          std::vector<Op> path = path_to(states, index);
          path.push_back(op);
          FAIL() << why << " after " << depth << " steps; as a row:\n" << as_row(cfg, path, next);
        }
        shed |= next.count(Fate::shed_newest) + next.count(Fate::shed_oldest) +
                    next.count(Fate::shed_latest) > 0;
        blocked |= next.count(Fate::blocked) > 0;
        expired |= next.count(Fate::expired) > 0;
        unmapped |= next.count(Fate::unmapped) > 0;
        taken |= next.taken() > 0;
        waited |= next.waited();
        if (!seen.insert(next.fingerprint()).second) continue;
        states.push_back({index, op});
        deeper.emplace_back(states.size() - 1, std::move(next));
      }
    }
    level = std::move(deeper);
  }
  // The bounds on offers and advances make the space finite: the search ends
  // by running out of new states, not out of depth.
  EXPECT_TRUE(level.empty()) << "states left unexplored at depth " << kDepth;
  EXPECT_TRUE(cfg == Cfg::block ? blocked && !shed : shed && !blocked);
  EXPECT_TRUE(expired && unmapped && taken);
  EXPECT_EQ(waited, cfg == Cfg::shaped_ttl);
  // The last level expanded found nothing new: the deepest state is one up.
  RecordProperty("depth", depth - 1);
  RecordProperty("states", static_cast<int>(states.size()));
  std::cout << "explored " << states.size() << " states to depth " << depth - 1 << "\n";
}

INSTANTIATE_TEST_SUITE_P(Policies, PathQueueExplorer,
                         ::testing::Values(Cfg::drop_newest, Cfg::drop_oldest, Cfg::latest_only,
                                           Cfg::block, Cfg::shaped_ttl),
                         [](const ::testing::TestParamInfo<Cfg>& info) {
                           return std::string(kCfgNames[static_cast<std::size_t>(info.param)]);
                         });

}  // namespace
}  // namespace umiddle::core
