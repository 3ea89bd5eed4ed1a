// End-to-end delivery contract, local half (DESIGN.md §11): per-destination
// circuit breaker, per-message deadlines, and the bounded-buffer shedding
// policies. The cross-node half (UMTP acks, dedup, outage expiry) lives in
// chaos_test.cpp, where the fault plane can cut links under it.
#include <gtest/gtest.h>

#include "conservation.hpp"
#include "core/umiddle.hpp"
#include "netsim/fault.hpp"

namespace umiddle::core {
namespace {

using sim::milliseconds;
using sim::seconds;

MimeType jpeg() { return MimeType::of("image/jpeg"); }

/// A sink whose native side can be forced to fail or to refuse readiness.
class FussySink final : public Translator {
 public:
  FussySink() : Translator("Fussy sink", "umiddle", "umiddle:test", make_sink_shape("in", jpeg())) {}

  [[nodiscard]] Result<void> deliver(const std::string&, const Message& msg) override {
    attempts += 1;
    if (failing) return make_error(Errc::io_error, "native device offline");
    delivered.push_back(msg);
    return ok_result();
  }
  bool ready(const std::string&) const override { return open_; }
  void open() {
    open_ = true;
    if (runtime() != nullptr) runtime()->notify_ready(profile().id);
  }
  /// Backpressure without virtual time passing: the translation buffer fills
  /// deterministically while the gate is closed.
  void close_gate() { open_ = false; }

  int attempts = 0;
  bool failing = false;
  std::vector<Message> delivered;

 private:
  bool open_ = true;
};

struct DeliveryWorld {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  std::unique_ptr<Runtime> rt;
  LambdaDevice* src = nullptr;
  FussySink* sink = nullptr;
  TranslatorId src_id;
  TranslatorId sink_id;

  explicit DeliveryWorld(RuntimeConfig config = {}) {
    net::SegmentId lan = net.add_segment(net::SegmentSpec{});
    EXPECT_TRUE(net.add_host("h").ok());
    EXPECT_TRUE(net.attach("h", lan).ok());
    rt = std::make_unique<Runtime>(sched, net, "h", std::move(config));
    EXPECT_TRUE(rt->start().ok());
    auto s = std::make_unique<LambdaDevice>("Source", make_source_shape("out", jpeg()));
    src = s.get();
    src_id = rt->map(std::move(s)).take();
    auto k = std::make_unique<FussySink>();
    sink = k.get();
    sink_id = rt->map(std::move(k)).take();
    sched.run_for(milliseconds(100));
  }

  PathId connect(QosPolicy qos = {}) {
    return rt->transport().connect(PortRef{src_id, "out"}, PortRef{sink_id, "in"}, qos).take();
  }

  Result<void> emit(int n, std::size_t bytes = 1000) {
    Message m;
    m.type = jpeg();
    m.payload = Bytes(bytes, 0xFF);
    m.meta["n"] = std::to_string(n);
    return src->emit("out", std::move(m));
  }

  std::uint64_t counter(std::string_view name) {
    auto snap = net.metrics().snapshot();
    const obs::SnapshotEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->count;
  }
};

// --- circuit breaker -----------------------------------------------------------

TEST(BreakerTest, OpensAfterThresholdQuarantinesAndProbesBackClosed) {
  DeliveryWorld w;  // default threshold 5, probe delay 500 ms (+ jitter)
  PathId path = w.connect();
  w.sink->failing = true;

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(100));
  EXPECT_EQ(w.sink->attempts, 5);
  EXPECT_EQ(w.counter("delivery.breaker_open"), 1u);

  // Open: further messages are quarantined without touching the native side.
  for (int i = 5; i < 8; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(100));
  EXPECT_EQ(w.sink->attempts, 5);
  EXPECT_EQ(w.counter("delivery.breaker_dropped"), 3u);
  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_dropped, 3u);

  // Half-open probe: the first delivery after the (jittered ≤ 750 ms) delay
  // reaches the device again; still failing, so the breaker snaps back open.
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.counter("delivery.breaker_probes"), 1u);
  ASSERT_TRUE(w.emit(8).ok());
  w.sched.run_for(milliseconds(100));
  EXPECT_EQ(w.sink->attempts, 6);
  EXPECT_EQ(w.counter("delivery.breaker_open"), 2u);

  // Device recovers: the next probe succeeds and fully closes the breaker.
  w.sink->failing = false;
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.counter("delivery.breaker_probes"), 2u);
  ASSERT_TRUE(w.emit(9).ok());
  ASSERT_TRUE(w.emit(10).ok());
  w.sched.run_for(milliseconds(100));
  EXPECT_EQ(w.counter("delivery.breaker_closed"), 1u);
  ASSERT_EQ(w.sink->delivered.size(), 2u);
  EXPECT_EQ(w.sink->delivered[0].meta.at("n"), "9");
  EXPECT_EQ(w.sink->delivered[1].meta.at("n"), "10");
  // A failed delivery still reached the native side: it counts as delivered.
  expect_conserved(w.net, 11, static_cast<std::uint64_t>(w.sink->attempts));
}

TEST(BreakerTest, ThresholdZeroDisablesTheBreakerEntirely) {
  RuntimeConfig config;
  config.breaker_failure_threshold = 0;
  DeliveryWorld w(std::move(config));
  w.connect();
  w.sink->failing = true;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(200));
  EXPECT_EQ(w.sink->attempts, 20);  // every delivery reached the native side
  auto snap = w.net.metrics().snapshot();
  for (const char* name : {"delivery.breaker_open", "delivery.breaker_dropped",
                           "delivery.breaker_probes", "delivery.breaker_closed"}) {
    EXPECT_EQ(snap.find(name), nullptr) << name << " registered with breaker disabled";
  }
  expect_conserved(w.net, 20, 20);
}

TEST(BreakerTest, SuccessResetsTheConsecutiveFailureCount) {
  DeliveryWorld w;
  w.connect();
  // 4 failures, a success, 4 more failures: never 5 consecutive, never opens.
  w.sink->failing = true;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(100));
  w.sink->failing = false;
  ASSERT_TRUE(w.emit(4).ok());
  w.sched.run_for(milliseconds(100));
  w.sink->failing = true;
  for (int i = 5; i < 9; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(100));
  EXPECT_EQ(w.sink->attempts, 9);
  EXPECT_EQ(w.net.metrics().snapshot().find("delivery.breaker_open"), nullptr);
  expect_conserved(w.net, 9, 9);
}

TEST(BreakerTest, StaleProbeTimerFromEarlierOpenCycleIsIgnored) {
  RuntimeConfig config;
  config.breaker_probe_delay = seconds(2);  // timer due open + [2, 3] s (jitter ≤ half)
  DeliveryWorld w(std::move(config));
  w.connect();
  w.sink->failing = true;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(100));  // t ≈ 0.1 s: open #1, its timer due ≤ t + 3 s
  EXPECT_EQ(w.counter("delivery.breaker_open"), 1u);

  // Restart the node before that timer fires. The crash wipes the breaker
  // table but the timer stays scheduled; the re-mapped sink recycles the
  // translator id, so a fresh breaker for the *same id* opens a new cycle.
  w.sched.run_for(milliseconds(1700));
  const int first_attempts = w.sink->attempts;  // the crash destroys this sink
  w.rt->crash();
  ASSERT_TRUE(w.rt->start().ok());
  auto s = std::make_unique<LambdaDevice>("Source", make_source_shape("out", jpeg()));
  w.src = s.get();
  ASSERT_EQ(w.rt->map(std::move(s)).take(), w.src_id);  // ids recycle with the process
  auto k = std::make_unique<FussySink>();
  w.sink = k.get();
  ASSERT_EQ(w.rt->map(std::move(k)).take(), w.sink_id);
  ASSERT_TRUE(
      w.rt->transport().connect(PortRef{w.src_id, "out"}, PortRef{w.sink_id, "in"}).ok());
  w.sink->failing = true;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(100));  // t ≈ 1.9 s: open #2, its timer due ≥ t + 2 s
  EXPECT_EQ(w.counter("delivery.breaker_open"), 2u);
  EXPECT_EQ(w.sink->attempts, 5);

  // t ≈ 3.6 s: cycle #1's timer has fired (due ≤ 3.1 s), cycle #2's has not
  // (due ≥ 3.9 s). The stale timer must not half-open the new cycle early.
  w.sched.run_for(milliseconds(1700));
  EXPECT_EQ(w.counter("delivery.breaker_probes"), 0u);
  ASSERT_TRUE(w.emit(5).ok());
  w.sched.run_for(milliseconds(100));
  EXPECT_EQ(w.sink->attempts, 5);  // still quarantined
  EXPECT_GE(w.counter("delivery.breaker_dropped"), 1u);

  // t ≈ 5.5 s: past cycle #2's latest due time, its own probe opens the gate.
  w.sched.run_for(milliseconds(1800));
  EXPECT_EQ(w.counter("delivery.breaker_probes"), 1u);
  w.sink->failing = false;
  ASSERT_TRUE(w.emit(6).ok());
  w.sched.run_for(milliseconds(100));
  EXPECT_EQ(w.sink->attempts, 6);
  EXPECT_EQ(w.counter("delivery.breaker_closed"), 1u);
  expect_conserved(w.net, 12, static_cast<std::uint64_t>(first_attempts + w.sink->attempts));
}

// --- message deadlines ----------------------------------------------------------

TEST(DeadlineTest, ExpiredMessagesAreDroppedNotDelivered) {
  DeliveryWorld w;
  PathId path = w.connect();

  Message stale;
  stale.type = jpeg();
  stale.payload = Bytes(1000, 0xFF);
  stale.deadline_ns = w.sched.now().count();  // already expired at emit
  ASSERT_TRUE(w.src->emit("out", std::move(stale)).ok());

  Message fresh;
  fresh.type = jpeg();
  fresh.payload = Bytes(1000, 0xFF);
  fresh.deadline_ns = (w.sched.now() + seconds(1)).count();
  ASSERT_TRUE(w.src->emit("out", std::move(fresh)).ok());

  w.sched.run_for(milliseconds(100));
  ASSERT_EQ(w.sink->delivered.size(), 1u);
  EXPECT_EQ(w.sink->delivered[0].deadline_ns, fresh.deadline_ns);
  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_expired, 1u);
  EXPECT_EQ(w.counter("delivery.expired"), 1u);
  expect_conserved(w.net, 2, 1);
}

TEST(DeadlineTest, PathTtlExpiresMessagesHeldByBackpressure) {
  DeliveryWorld w;
  QosPolicy qos;
  qos.message_ttl = milliseconds(200);
  PathId path = w.connect(qos);

  // The TTL is stamped at emit; while the sink refuses readiness the messages
  // age in the translation buffer and must be retired there, never delivered.
  w.sink->close_gate();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(w.emit(i).ok());
  w.sched.run_for(milliseconds(300));  // past every deadline
  w.sink->open();
  w.sched.run_for(milliseconds(100));
  EXPECT_TRUE(w.sink->delivered.empty());
  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_expired, 3u);
  EXPECT_EQ(stats->buffered_bytes, 0u);
  EXPECT_EQ(w.counter("delivery.expired"), 3u);

  // A fresh emit within its TTL still flows.
  ASSERT_TRUE(w.emit(3).ok());
  w.sched.run_for(milliseconds(100));
  ASSERT_EQ(w.sink->delivered.size(), 1u);
  EXPECT_EQ(w.sink->delivered[0].meta.at("n"), "3");
  expect_conserved(w.net, 4, 1);
}

// --- shedding policies ----------------------------------------------------------

TEST(SheddingTest, DropOldestEvictsTheQueueFront) {
  DeliveryWorld w;
  QosPolicy qos;
  qos.max_buffered_bytes = 3000;
  qos.shed = ShedPolicy::drop_oldest;
  PathId path = w.connect(qos);
  w.sink->close_gate();

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.emit(i).ok());
  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->buffered_bytes, 3000u);
  EXPECT_EQ(stats->messages_shed, 2u);
  EXPECT_EQ(stats->messages_dropped, 2u);
  EXPECT_EQ(w.counter("delivery.shed_oldest"), 2u);

  w.sink->open();
  w.sched.run_for(milliseconds(100));
  ASSERT_EQ(w.sink->delivered.size(), 3u);  // the newest three survive, in order
  EXPECT_EQ(w.sink->delivered[0].meta.at("n"), "2");
  EXPECT_EQ(w.sink->delivered[1].meta.at("n"), "3");
  EXPECT_EQ(w.sink->delivered[2].meta.at("n"), "4");
  expect_conserved(w.net, 5, 3);
}

TEST(SheddingTest, LatestOnlyCoalescesToTheFreshestMessage) {
  DeliveryWorld w;
  QosPolicy qos;
  qos.max_buffered_bytes = 1000;  // a single 1000 B slot
  qos.shed = ShedPolicy::latest_only;
  PathId path = w.connect(qos);
  w.sink->close_gate();

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.emit(i).ok());
  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->buffered_bytes, 1000u);
  EXPECT_EQ(stats->messages_shed, 4u);
  EXPECT_EQ(w.counter("delivery.shed_latest"), 4u);

  w.sink->open();
  w.sched.run_for(milliseconds(100));
  ASSERT_EQ(w.sink->delivered.size(), 1u);
  EXPECT_EQ(w.sink->delivered[0].meta.at("n"), "4");  // only the freshest
  expect_conserved(w.net, 5, 1);
}

TEST(SheddingTest, BlockRefusesEmitsButNeverDropsAnything) {
  DeliveryWorld w;
  QosPolicy qos;
  qos.max_buffered_bytes = 2000;
  qos.shed = ShedPolicy::block;
  PathId path = w.connect(qos);
  w.sink->close_gate();

  ASSERT_TRUE(w.emit(0).ok());
  ASSERT_TRUE(w.emit(1).ok());
  auto refused = w.emit(2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::buffer_overflow);  // would-block

  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_blocked, 1u);
  EXPECT_EQ(stats->messages_shed, 0u);
  EXPECT_EQ(stats->messages_dropped, 0u);
  EXPECT_EQ(w.counter("delivery.blocked"), 1u);

  // Producer retry loop: drain, retry, nothing is ever lost.
  w.sink->open();
  w.sched.run_for(milliseconds(100));
  ASSERT_TRUE(w.emit(2).ok());
  w.sched.run_for(milliseconds(100));
  ASSERT_EQ(w.sink->delivered.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.sink->delivered[static_cast<std::size_t>(i)].meta.at("n"), std::to_string(i));
  }
  expect_conserved(w.net, 4, 3);  // the refused emit is offered once, as blocked
}

TEST(SheddingTest, BlockRetiresAlreadyExpiredMessagesInsteadOfRefusing) {
  DeliveryWorld w;
  QosPolicy qos;
  qos.max_buffered_bytes = 2000;
  qos.shed = ShedPolicy::block;
  PathId path = w.connect(qos);
  w.sink->close_gate();
  ASSERT_TRUE(w.emit(0).ok());
  ASSERT_TRUE(w.emit(1).ok());  // buffer now full

  // A message already past its deadline can never be delivered; refusing it
  // with would-block would spin a retrying producer forever. It is retired as
  // expired instead — no error, no blocked count.
  Message stale;
  stale.type = jpeg();
  stale.payload = Bytes(1000, 0xFF);
  stale.deadline_ns = w.sched.now().count();
  ASSERT_TRUE(w.src->emit("out", std::move(stale)).ok());
  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_expired, 1u);
  EXPECT_EQ(stats->messages_blocked, 0u);
  EXPECT_EQ(w.counter("delivery.expired"), 1u);

  // A live message against the same full buffer is still refused whole.
  auto refused = w.emit(2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::buffer_overflow);
  EXPECT_EQ(stats->messages_blocked, 1u);

  // Nothing queued was touched by either outcome.
  w.sink->open();
  w.sched.run_for(milliseconds(100));
  ASSERT_EQ(w.sink->delivered.size(), 2u);
  EXPECT_EQ(w.sink->delivered[0].meta.at("n"), "0");
  EXPECT_EQ(w.sink->delivered[1].meta.at("n"), "1");
  expect_conserved(w.net, 4, 2);
}

TEST(SheddingTest, ZeroCapacityBufferShedsEveryArrival) {
  for (ShedPolicy policy : {ShedPolicy::drop_newest, ShedPolicy::drop_oldest,
                            ShedPolicy::latest_only}) {
    DeliveryWorld w;
    QosPolicy qos;
    qos.max_buffered_bytes = 0;
    qos.shed = policy;
    PathId path = w.connect(qos);
    w.sink->close_gate();
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(w.emit(i).ok());
    const PathStats* stats = w.rt->transport().stats(path);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->messages_shed, 3u) << "policy " << static_cast<int>(policy);
    EXPECT_EQ(stats->buffered_bytes, 0u);
    w.sink->open();
    w.sched.run_for(milliseconds(100));
    EXPECT_TRUE(w.sink->delivered.empty());
    expect_conserved(w.net, 3, 0);
  }
  // Block with zero capacity refuses every emit instead of shedding.
  DeliveryWorld w;
  QosPolicy qos;
  qos.max_buffered_bytes = 0;
  qos.shed = ShedPolicy::block;
  PathId path = w.connect(qos);
  auto refused = w.emit(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::buffer_overflow);
  EXPECT_EQ(w.rt->transport().stats(path)->messages_blocked, 1u);
  expect_conserved(w.net, 1, 0);
}

TEST(SheddingTest, DropNewestKeepsLegacyTailDropAndCountsShed) {
  DeliveryWorld w;
  QosPolicy qos;
  qos.max_buffered_bytes = 3000;  // default shed = drop_newest
  PathId path = w.connect(qos);
  w.sink->close_gate();

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.emit(i).ok());
  const PathStats* stats = w.rt->transport().stats(path);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_shed, 2u);
  EXPECT_EQ(stats->messages_dropped, 2u);
  EXPECT_EQ(w.counter("delivery.shed_newest"), 2u);

  w.sink->open();
  w.sched.run_for(milliseconds(100));
  ASSERT_EQ(w.sink->delivered.size(), 3u);  // the oldest three survive
  EXPECT_EQ(w.sink->delivered[0].meta.at("n"), "0");
  EXPECT_EQ(w.sink->delivered[2].meta.at("n"), "2");
  expect_conserved(w.net, 5, 3);
}

// --- messages held when their path or runtime goes away -------------------------

enum class Teardown { disconnect, source_unmapped, stop, crash, disconnect_mid_translation };

std::string teardown_name(Teardown t) {
  switch (t) {
    case Teardown::disconnect: return "disconnect";
    case Teardown::source_unmapped: return "source_unmapped";
    case Teardown::stop: return "stop";
    case Teardown::crash: return "crash";
    case Teardown::disconnect_mid_translation: return "disconnect_mid_translation";
  }
  return "unknown";
}

// Keeps failure messages readable: without it gtest prints the raw bytes.
void PrintTo(Teardown t, std::ostream* os) { *os << teardown_name(t); }

class DiscardTest : public ::testing::TestWithParam<Teardown> {};

TEST_P(DiscardTest, HeldMessagesAreRetiredAsDiscarded) {
  DeliveryWorld w;
  PathId path = w.connect();
  const Teardown how = GetParam();
  // Three messages held by the path: all queued behind a closed gate, or the
  // first in translation (no virtual time passes) and two queued behind it.
  if (how != Teardown::disconnect_mid_translation) w.sink->close_gate();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(w.emit(i).ok());
  ASSERT_EQ(w.sink->attempts, 0);
  const std::uint64_t dropped = w.counter("umtp.messages_dropped");

  switch (how) {
    case Teardown::disconnect:
    case Teardown::disconnect_mid_translation:
      ASSERT_TRUE(w.rt->transport().disconnect(path).ok());
      break;
    case Teardown::source_unmapped:
      ASSERT_TRUE(w.rt->unmap(w.src_id).ok());
      break;
    case Teardown::stop:
      w.rt->stop();  // unmaps in id order: the source, and so the path, first
      break;
    case Teardown::crash:
      w.rt->crash();
      break;
  }
  const bool sink_alive = how != Teardown::stop && how != Teardown::crash;
  if (sink_alive) w.sink->open();
  w.sched.run_for(milliseconds(100));

  if (sink_alive) {
    EXPECT_EQ(w.sink->attempts, 0);
  }
  EXPECT_EQ(w.counter("delivery.discarded"), 3u);
  EXPECT_EQ(w.counter("umtp.messages_dropped") - dropped, 3u);
  expect_conserved(w.net, 3, 0);
}

INSTANTIATE_TEST_SUITE_P(Teardowns, DiscardTest,
                         ::testing::Values(Teardown::disconnect, Teardown::source_unmapped,
                                           Teardown::stop, Teardown::crash,
                                           Teardown::disconnect_mid_translation),
                         [](const ::testing::TestParamInfo<Teardown>& info) {
                           return teardown_name(info.param);
                         });

// --- link lifecycle ----------------------------------------------------------

/// Two runtimes on one LAN with 100 ms latency: a source on `a`, a sink on `b`,
/// and a path between them, so the link from a to b is easy to catch mid-way.
struct LinkWorld {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId lan;
  std::unique_ptr<Runtime> ra;
  std::unique_ptr<Runtime> rb;
  LambdaDevice* src = nullptr;
  CollectorDevice* sink = nullptr;

  LinkWorld() {
    net::SegmentSpec spec;
    spec.latency = milliseconds(100);
    lan = net.add_segment(spec);
    for (const char* h : {"a", "b"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, lan).ok());
    }
    RuntimeConfig config;
    config.reconnect_base = milliseconds(10);
    ra = std::make_unique<Runtime>(sched, net, "a", config);
    rb = std::make_unique<Runtime>(sched, net, "b");
    EXPECT_TRUE(ra->start().ok());
    EXPECT_TRUE(rb->start().ok());
    auto s = std::make_unique<LambdaDevice>("Source", make_source_shape("out", jpeg()));
    src = s.get();
    TranslatorId src_id = ra->map(std::move(s)).take();
    auto k = std::make_unique<CollectorDevice>("Sink", make_sink_shape("in", jpeg()));
    sink = k.get();
    TranslatorId sink_id = rb->map(std::move(k)).take();
    sched.run_for(seconds(3));
    EXPECT_TRUE(ra->transport().connect(PortRef{src_id, "out"}, PortRef{sink_id, "in"}).ok());
  }

  void emit(int n) {
    Message m;
    m.type = jpeg();
    m.payload = Bytes(100, 0xFF);
    m.meta["n"] = std::to_string(n);
    EXPECT_TRUE(src->emit("out", std::move(m)).ok());
  }

  std::uint64_t counter(std::string_view name) {
    auto snap = net.metrics().snapshot();
    const obs::SnapshotEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->count;
  }
};

TEST(LinkLifecycleTest, PeerStopWhileResumingDiscardsTheOutageBuffer) {
  LinkWorld w;
  w.emit(0);
  w.sched.run_for(seconds(1));
  ASSERT_EQ(w.sink->count(), 1u);

  // Reset the link and hold three messages while it is down.
  w.net.faults().partition_now(w.lan);
  for (int i = 1; i <= 3; ++i) w.emit(i);
  w.sched.run_for(milliseconds(100));
  w.net.faults().heal_now(w.lan);
  // The next reconnect attempt opens a stream; 300 ms of handshake later the
  // link sends RESUME, which takes 100 ms to reach b. Stop b in between: its
  // graceful close reaches a link that is resuming with three unsent frames.
  const std::uint64_t connects = w.counter("net.stream.connects");
  for (int ms = 0; ms < 5000 && w.counter("net.stream.connects") == connects; ++ms) {
    w.sched.run_for(milliseconds(1));
  }
  ASSERT_GT(w.counter("net.stream.connects"), connects) << "no reconnect attempt within 5 s";
  w.sched.run_for(milliseconds(350));
  const std::size_t delivered = w.sink->count();  // the stop destroys the sink
  w.rb->stop();
  w.sched.run_for(seconds(2));

  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(w.counter("recovery.link_down"), 1u);
  EXPECT_EQ(w.counter("delivery.resumes"), 0u);  // b never answered
  EXPECT_EQ(w.counter("recovery.reconnects"), 0u);
  EXPECT_EQ(w.counter("delivery.discarded"), 3u);
  expect_conserved(w.net, 4, delivered);
}

TEST(LinkLifecycleTest, ResetBeforeTheFirstFrameArrivesReplaysIt) {
  LinkWorld w;
  // The first message opens the link. It comes up 300 ms later and writes
  // the message, which takes 100 ms to reach b. Reset it in between: b
  // accepted the stream but has counted no frame on it, and never restarted.
  w.emit(0);
  w.sched.run_for(milliseconds(350));
  w.net.faults().partition_now(w.lan);
  w.sched.run_for(milliseconds(100));
  w.net.faults().heal_now(w.lan);
  w.sched.run_for(seconds(2));
  EXPECT_EQ(w.counter("delivery.resumes"), 1u);
  EXPECT_EQ(w.counter("delivery.unacked_dropped"), 0u);
  EXPECT_EQ(w.counter("recovery.replays"), 1u);
  EXPECT_EQ(w.sink->count(), 1u);
  expect_conserved(w.net, 1, w.sink->count());
}

TEST(LinkLifecycleTest, MalformedAckStreamClosesTheLink) {
  LinkWorld w;
  // b's UMTP port is served by a raw listener instead of b's transport.
  w.rb->transport().stop();
  net::StreamPtr accepted;
  ASSERT_TRUE(w.net
                  .listen({"b", RuntimeConfig{}.umtp_port},
                          [&accepted](net::StreamPtr s) { accepted = std::move(s); })
                  .ok());
  w.emit(0);
  w.sched.run_for(seconds(1));
  ASSERT_NE(accepted, nullptr);
  bool closed = false;
  accepted->on_close([&closed]() { closed = true; });
  // Garbage where a's link expects ACKs poisons its reader.
  ASSERT_TRUE(accepted->send(Bytes(8, 0xFF)).ok());
  w.sched.run_for(seconds(1));
  EXPECT_TRUE(closed);
  EXPECT_FALSE(accepted->was_reset());
  // The link is gone: the next message opens a new one.
  const std::uint64_t connects = w.counter("net.stream.connects");
  w.emit(1);
  w.sched.run_for(seconds(1));
  EXPECT_EQ(w.counter("net.stream.connects"), connects + 1);
}

}  // namespace
}  // namespace umiddle::core
