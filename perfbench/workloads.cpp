#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bluetooth/bip.hpp"
#include "bluetooth/mapper.hpp"
#include "core/umiddle.hpp"
#include "mediabroker/mapper.hpp"
#include "netsim/fault.hpp"
#include "upnp/devices.hpp"
#include "upnp/mapper.hpp"

namespace perfbench {
namespace {

using namespace umiddle;

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("setup: " + what);
}

void require(const Result<void>& r, const std::string& what) {
  if (!r.ok()) throw std::runtime_error("setup: " + what + ": " + r.error().to_string());
}

sim::Duration from_seconds(double s) {
  return sim::Duration(static_cast<std::int64_t>(s * 1e9));
}

/// Seed-derived byte pattern that payloads are cut from, so a receiver can
/// check every byte it got against the bytes that were sent.
Bytes make_pattern(std::uint64_t seed, std::size_t size) {
  Rng rng(seed ^ 0x70617474u);
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

void put_u64(std::uint8_t* dst, std::uint64_t v) { std::memcpy(dst, &v, sizeof v); }

std::uint64_t get_u64(const std::uint8_t* src) {
  std::uint64_t v = 0;
  std::memcpy(&v, src, sizeof v);
  return v;
}

const MimeType& octet_stream() {
  static const MimeType type = MimeType::of("application/octet-stream");
  return type;
}

// --- mb_echo ---------------------------------------------------------------------
//
// Fig. 11 MediaBroker echo on the half-duplex 10 Mbps hub: node1 runs the MB
// server and the MB service's producer and consumer, node2 the uMiddle
// runtime whose MB translator consumes "bench" and is connected to its own
// produce port, which publishes "bench-out" back to node1. Open loop: message
// i is due at i*interval plus up to half an interval of seeded jitter, and is
// timed from when it was due.
class MbEcho final : public Workload {
 public:
  static constexpr std::size_t kMessage = 1400;
  /// ≈3.0 Mbit/s offered, below the hub's ≈3.9 Mbit/s echo capacity.
  static constexpr sim::Duration kInterval = sim::microseconds(3750);

  MbEcho(std::uint64_t seed, Size size)
      : Workload(seed), count_(size == Size::full ? 20000 : 300),
        pattern_(make_pattern(seed, kPatternSpan + kMessage)) {
    Rng rng(seed);
    due_.resize(count_);
    for (std::size_t i = 0; i < count_; ++i) {
      due_[i] = static_cast<std::int64_t>(i) * kInterval.count() +
                static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(kInterval.count() / 2)));
    }
  }

  void setup() override {
    net::SegmentSpec spec;
    spec.name = "hub-10mbps";
    spec.bandwidth_bps = 10e6;
    spec.latency = sim::microseconds(100);
    spec.shared_medium = true;
    spec.contention_overhead = 0.18;
    const net::SegmentId hub = net_.add_segment(spec);
    for (const char* h : {"node1", "node2"}) {
      require(net_.add_host(h), "add host");
      require(net_.attach(h, hub), "attach host");
    }
    server_ = std::make_unique<mb::MbServer>(net_, "node1");
    require(server_->start(), "MB server start");
    mb::register_mb_usdl(library_);
    runtime_ = std::make_unique<core::Runtime>(sched_, net_, "node2");
    runtime_->add_mapper(std::make_unique<mb::MbMapper>(server_->endpoint(), library_));
    require(runtime_->start(), "runtime start");

    producer_ = std::make_unique<mb::MbClient>(net_, "node1", server_->endpoint());
    consumer_ = std::make_unique<mb::MbClient>(net_, "node1", server_->endpoint());
    require(producer_->connect(), "producer connect");
    require(consumer_->connect(), "consumer connect");
    require(producer_->produce("bench", "application/octet-stream"), "produce");
    sched_.run_for(sim::seconds(6));

    auto found = runtime_->directory().lookup(core::Query().platform("mb"));
    require(found.size() == 1, "one MB translator mapped");
    const TranslatorId id = found.front().id;
    require(runtime_->transport()
                .connect(core::PortRef{id, "media-out"}, core::PortRef{id, "media-in"})
                .ok(),
            "echo path connect");
    consumer_->on_data([this](const std::string& stream, const Bytes& payload) {
      on_echo(stream, payload);
    });
    require(consumer_->consume("bench-out"), "consume");
    sched_.run_for(sim::seconds(1));
  }

  void begin() override {
    t0_ = sched_.now();
    deadline_ = t0_ + sim::Duration(due_.back()) + sim::seconds(60);
    schedule_send(0);
  }

  bool advance() override { return received_ < count_ && sched_.now() < deadline_; }

  RoundOutput finish() override {
    RoundOutput out;
    out.attempted = count_;
    out.completed = good_;
    out.failed = received_ - good_;
    out.latency_ns = std::move(latency_);
    out.payload_bytes = good_ * kMessage;
    out.span = last_rx_ - t0_;
    if (received_ != count_) {
      out.errors.push_back("echoed " + std::to_string(received_) + " of " +
                           std::to_string(count_) + " messages");
    }
    if (out.failed != 0) {
      out.errors.push_back(std::to_string(out.failed) + " echoes out of order or corrupted");
    }
    if (send_failures_ != 0) {
      out.errors.push_back(std::to_string(send_failures_) + " MB sends refused");
    }
    return out;
  }

  std::vector<HostRole> hosts() const override { return {{"node1", false}, {"node2", true}}; }

 private:
  static constexpr std::size_t kPatternSpan = 4096;

  const std::uint8_t* body_of(std::uint64_t seq) const {
    return pattern_.data() + (seq * 67) % kPatternSpan;
  }

  void schedule_send(std::uint64_t seq) {
    sched_.schedule_at(t0_ + sim::Duration(due_[seq]), [this, seq]() {
      Bytes msg(kMessage);
      std::memcpy(msg.data(), body_of(seq), kMessage);
      put_u64(msg.data(), seq);
      if (!producer_->send("bench", std::move(msg)).ok()) ++send_failures_;
      if (seq + 1 < count_) schedule_send(seq + 1);
    });
  }

  void on_echo(const std::string& stream, const Bytes& payload) {
    // MB and the echo path are both FIFO, so echoes arrive in send order and
    // every byte must match what was sent.
    const std::uint64_t seq = received_++;
    last_rx_ = sched_.now();
    const bool ok = stream == "bench-out" && payload.size() == kMessage &&
                    get_u64(payload.data()) == seq &&
                    std::memcmp(payload.data() + 8, body_of(seq) + 8, kMessage - 8) == 0;
    if (!ok) return;
    ++good_;
    latency_.push_back(sched_.now().count() - t0_.count() - due_[seq]);
  }

  const std::size_t count_;
  const Bytes pattern_;
  std::vector<std::int64_t> due_;  ///< send time of message i, relative to t0_
  core::UsdlLibrary library_;
  std::unique_ptr<mb::MbServer> server_;
  std::unique_ptr<core::Runtime> runtime_;
  std::unique_ptr<mb::MbClient> producer_;
  std::unique_ptr<mb::MbClient> consumer_;
  sim::TimePoint t0_{0};
  sim::TimePoint deadline_{0};
  sim::TimePoint last_rx_{0};
  std::uint64_t received_ = 0;
  std::uint64_t good_ = 0;
  std::uint64_t send_failures_ = 0;
  std::vector<std::int64_t> latency_;
};

// --- camera_tv -------------------------------------------------------------------
//
// Fig. 5 pipeline: BT BIP camera → runtime A (living-room) → UMTP → runtime B
// (media-cabinet) → UPnP SOAP → TV (tv-host). Closed loop, one photo in
// flight: the next shutter fires when the TV has rendered the previous photo.
// Photo sizes are 30 kB ± 512 B, drawn from the seed.
class CameraTv final : public Workload {
 public:
  CameraTv(std::uint64_t seed, Size size)
      : Workload(seed), count_(size == Size::full ? 1000 : 20),
        pattern_(make_pattern(seed, kPatternSpan + kMaxPhoto)) {
    Rng rng(seed);
    for (std::size_t i = 0; i < count_; ++i) sizes_.push_back(kMaxPhoto - 1024 + rng.below(1025));
  }

  void setup() override {
    net::SegmentSpec lan;
    lan.name = "lan";
    const net::SegmentId seg = net_.add_segment(lan);
    for (const char* host : {"living-room", "media-cabinet", "tv-host"}) {
      require(net_.add_host(host), "add host");
      require(net_.attach(host, seg), "attach host");
    }
    piconet_ = std::make_unique<bt::BluetoothMedium>(net_);
    camera_ = std::make_unique<bt::BipCamera>(*piconet_, "Bench camera");
    require(camera_->power_on(), "camera power on");
    tv_ = std::make_unique<upnp::MediaRendererTv>(net_, "tv-host", 8000, "Bench TV");
    require(tv_->start(), "TV start");
    bt::register_bt_usdl(library_);
    upnp::register_upnp_usdl(library_);
    h1_ = std::make_unique<core::Runtime>(sched_, net_, "living-room");
    h1_->add_mapper(std::make_unique<bt::BtMapper>(*piconet_, library_));
    h2_ = std::make_unique<core::Runtime>(sched_, net_, "media-cabinet");
    h2_->add_mapper(std::make_unique<upnp::UpnpMapper>(library_));
    require(h1_->start(), "runtime A start");
    require(h2_->start(), "runtime B start");
    sched_.run_for(sim::seconds(4));

    auto cameras =
        h1_->directory().lookup(core::Query().digital_output(MimeType::of("image/*")));
    require(cameras.size() == 1, "one camera mapped");
    require(h1_->transport()
                .connect(core::PortRef{cameras[0].id, "image-out"},
                         core::Query().digital_input(MimeType::of("image/*")).platform("upnp"))
                .ok(),
            "camera→TV path connect");
    // One warm-up photo brings the UMTP link and the TV's HTTP session up.
    camera_->shutter(Bytes(30000, 0xD8), "warmup.jpg");
    while (tv_->rendered().empty() && sched_.now() < sim::seconds(30) && sched_.step()) {
    }
    require(tv_->rendered().size() == 1, "warm-up photo rendered");
  }

  void begin() override {
    t0_ = sched_.now();
    deadline_ = t0_ + sim::seconds(static_cast<std::int64_t>(2 * count_ + 30));
    shoot(0);
  }

  bool advance() override {
    const std::size_t rendered = tv_->rendered().size() - 1;  // minus the warm-up
    if (rendered > done_) {
      const auto& r = tv_->rendered().back();
      if (rendered == done_ + 1 && r.name == name_of(done_) && r.bytes == sizes_[done_]) {
        ++good_;
        latency_.push_back((sched_.now() - shot_at_).count());
        payload_ += r.bytes;
      }
      done_ = rendered;
      last_rx_ = sched_.now();
      if (done_ < count_) shoot(done_);
    }
    return done_ < count_ && sched_.now() < deadline_;
  }

  RoundOutput finish() override {
    RoundOutput out;
    out.attempted = count_;
    out.completed = good_;
    out.failed = done_ - good_;
    out.latency_ns = std::move(latency_);
    out.payload_bytes = payload_;
    out.span = last_rx_ - t0_;
    if (done_ != count_) {
      out.errors.push_back("rendered " + std::to_string(done_) + " of " +
                           std::to_string(count_) + " photos");
    }
    if (out.failed != 0) {
      out.errors.push_back(std::to_string(out.failed) + " photos rendered with a wrong name or size");
    }
    return out;
  }

  std::vector<HostRole> hosts() const override {
    return {{"living-room", true},
            {"media-cabinet", true},
            {"tv-host", false},
            {camera_->host(), false}};
  }

 private:
  static constexpr std::size_t kPatternSpan = 4096;
  static constexpr std::size_t kMaxPhoto = 30512;

  static std::string name_of(std::size_t i) { return "photo-" + std::to_string(i) + ".jpg"; }

  void shoot(std::size_t i) {
    const std::uint8_t* src = pattern_.data() + (i * 131) % kPatternSpan;
    shot_at_ = sched_.now();
    camera_->shutter(Bytes(src, src + sizes_[i]), name_of(i));
  }

  const std::size_t count_;
  const Bytes pattern_;
  std::vector<std::size_t> sizes_;
  std::unique_ptr<bt::BluetoothMedium> piconet_;
  std::unique_ptr<bt::BipCamera> camera_;
  std::unique_ptr<upnp::MediaRendererTv> tv_;
  core::UsdlLibrary library_;
  std::unique_ptr<core::Runtime> h1_;
  std::unique_ptr<core::Runtime> h2_;
  sim::TimePoint t0_{0};
  sim::TimePoint deadline_{0};
  sim::TimePoint shot_at_{0};
  sim::TimePoint last_rx_{0};
  std::size_t done_ = 0;
  std::uint64_t good_ = 0;
  std::uint64_t payload_ = 0;
  std::vector<std::int64_t> latency_;
};

// --- space_standup ---------------------------------------------------------------
//
// Ablation A, direct translation at n=64 device types: n(n-1) = 4032
// three-port translators instantiated one after another on one runtime, as a
// mapper generates them. The devices appear at seeded uniform times over the
// first minute — far faster than the ≈0.26 s instantiation cost — so the
// serial chain never idles, and each op is timed from its device's
// appearance to its translator being mapped.
class SpaceStandup final : public Workload {
 public:
  SpaceStandup(std::uint64_t seed, Size size)
      : Workload(seed), count_(size == Size::full ? 64 * 63 : 8 * 7) {
    Rng rng(seed);
    const auto window = static_cast<std::uint64_t>(sim::seconds(60).count());
    for (std::size_t i = 0; i < count_; ++i) {
      arrival_.push_back(static_cast<std::int64_t>(rng.below(window)));
    }
    std::sort(arrival_.begin(), arrival_.end());
  }

  void setup() override {
    net::SegmentSpec lan;
    lan.name = "lan";
    lan_ = net_.add_segment(lan);
    require(net_.add_host("node"), "add host");
    require(net_.attach("node", lan_), "attach host");
    runtime_ = std::make_unique<core::Runtime>(sched_, net_, "node");
    require(runtime_->start(), "runtime start");
    sched_.run_for(sim::seconds(1));
  }

  void begin() override {
    t0_ = sched_.now();
    lan_bytes0_ = net_.stats(lan_).payload_bytes;
    deadline_ = t0_ + sim::seconds(static_cast<std::int64_t>(count_) + 120);
    ids_.reserve(count_);
    issue();
  }

  bool advance() override {
    return ids_.size() + failures_ < count_ && sched_.now() < deadline_;
  }

  RoundOutput finish() override {
    RoundOutput out;
    out.attempted = count_;
    std::size_t good = 0;
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      const core::TranslatorProfile* p = runtime_->directory().profile(ids_[i]);
      if (runtime_->translator(ids_[i]) != nullptr && p != nullptr && p->name == name_of(i) &&
          p->shape.size() == 3) {
        ++good;
      }
    }
    out.completed = good;
    out.failed = count_ - good;
    out.latency_ns = std::move(latency_);
    // No application payload moves here: what the standup delivers is the
    // directory's advertisements, so goodput counts advert bytes on the LAN.
    out.payload_bytes = net_.stats(lan_).payload_bytes - lan_bytes0_;
    out.span = last_done_ - t0_;
    if (out.failed != 0 || runtime_->directory().known_translators() != count_) {
      out.errors.push_back("mapped " + std::to_string(good) + " of " + std::to_string(count_) +
                           " translators; directory knows " +
                           std::to_string(runtime_->directory().known_translators()));
    }
    return out;
  }

  std::vector<HostRole> hosts() const override { return {{"node", true}}; }

 private:
  static std::string name_of(std::size_t i) { return "t" + std::to_string(i); }

  static core::Shape make_shape() {
    core::Shape shape;
    for (std::size_t p = 0; p < 3; ++p) {
      core::PortSpec port;
      port.name = "p" + std::to_string(p);
      port.kind = core::PortKind::digital;
      port.direction = p % 2 == 0 ? core::Direction::input : core::Direction::output;
      port.type = octet_stream();
      (void)shape.add(std::move(port));
    }
    return shape;
  }

  /// Start the next instantiation once its device has appeared.
  void issue() {
    const std::size_t i = ids_.size() + failures_;
    if (i >= count_) return;
    const sim::TimePoint at = t0_ + sim::Duration(arrival_[i]);
    if (at > sched_.now()) {
      sched_.schedule_at(at, [this, i]() { instantiate(i); });
    } else {
      instantiate(i);
    }
  }

  void instantiate(std::size_t i) {
    runtime_->instantiate(
        std::make_unique<core::LambdaDevice>(name_of(i), make_shape()),
        [this, i](Result<TranslatorId> r) {
          if (r.ok()) {
            ids_.push_back(r.value());
            latency_.push_back((sched_.now() - t0_).count() - arrival_[i]);
          } else {
            ++failures_;
          }
          last_done_ = sched_.now();
          issue();
        });
  }

  const std::size_t count_;
  std::vector<std::int64_t> arrival_;  ///< device i appears at t0_ + arrival_[i]
  net::SegmentId lan_;
  std::unique_ptr<core::Runtime> runtime_;
  sim::TimePoint t0_{0};
  sim::TimePoint deadline_{0};
  sim::TimePoint last_done_{0};
  std::uint64_t lan_bytes0_ = 0;
  std::vector<TranslatorId> ids_;
  std::size_t failures_ = 0;
  std::vector<std::int64_t> latency_;
};

// --- fanout_chaos ----------------------------------------------------------------
//
// Two runtimes joined by kSources × kFanout fixed paths: every source
// translator on node-a feeds kFanout sink translators on node-b, so each emit
// routes to kFanout paths. Messages of 192–320 B (256 B mean) go out
// round-robin over the sources, open loop at 250 emits/s. The LAN is cut
// periodically through FaultPlane::cut, with outage lengths from a fixed set
// (seeded order and ±5% length, seeded start), and every path has a 2 s
// message TTL — shorter than the longest outage — so the run exercises the
// sender ledger, RESUME/ACK/replay, receiver dedup and deadline expiry. The
// outage buffer is sized so nothing overflows it.
class FanoutChaos final : public Workload {
 public:
  static constexpr std::size_t kMinMessage = 192;
  static constexpr std::size_t kMaxMessage = 320;
  static constexpr sim::Duration kInterval = sim::microseconds(4000);
  static constexpr sim::Duration kTtl = sim::seconds(2);
  static constexpr sim::Duration kCutPeriod = sim::seconds(10);

  FanoutChaos(std::uint64_t seed, Size size)
      : Workload(seed), sources_n_(size == Size::full ? 8 : 2),
        fanout_(size == Size::full ? 4 : 2), emits_(size == Size::full ? 10000 : 2500),
        pattern_(make_pattern(seed, kPatternSpan + kMaxMessage)) {
    Rng rng(seed);
    for (std::size_t k = 0; k < emits_; ++k) {
      due_.push_back(static_cast<std::int64_t>(k) * kInterval.count() +
                     static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(kInterval.count() / 2))));
      sizes_.push_back(kMinMessage + rng.below(kMaxMessage - kMinMessage + 1));
    }
    // One outage per period: lengths from a fixed set in seeded order, each
    // ending well before the last emit so every path recovers in the run.
    std::vector<double> lengths = {0.6, 1.2, 2.4, 3.2};
    for (std::size_t i = lengths.size(); i > 1; --i) std::swap(lengths[i - 1], lengths[rng.below(i)]);
    const std::size_t cuts = size == Size::full ? lengths.size() : 1;
    for (std::size_t j = 0; j < cuts; ++j) {
      const std::int64_t start = static_cast<std::int64_t>(j) * kCutPeriod.count() +
                                 sim::seconds(1).count() +
                                 static_cast<std::int64_t>(rng.below(500'000'000));
      const double scale = 0.95 + 0.1 * rng.unit();
      cuts_.push_back({start, start + from_seconds(lengths[j] * scale).count()});
    }
  }

  void setup() override {
    net::SegmentSpec spec;
    spec.name = "lan";
    lan_ = net_.add_segment(spec);
    for (const char* h : {"node-a", "node-b"}) {
      require(net_.add_host(h), "add host");
      require(net_.attach(h, lan_), "attach host");
    }
    core::RuntimeConfig config;
    config.outage_buffer_bytes = 8 * 1024 * 1024;
    a_ = std::make_unique<core::Runtime>(sched_, net_, "node-a", config);
    b_ = std::make_unique<core::Runtime>(sched_, net_, "node-b", config);
    require(a_->start(), "runtime A start");
    require(b_->start(), "runtime B start");

    std::vector<TranslatorId> src_ids;
    for (std::size_t s = 0; s < sources_n_; ++s) {
      auto dev = std::make_unique<core::LambdaDevice>("src" + std::to_string(s),
                                                      core::make_source_shape("out", octet_stream()));
      sources_.push_back(dev.get());
      auto id = a_->map(std::move(dev));
      require(id.ok(), "map source");
      src_ids.push_back(id.value());
    }
    std::vector<TranslatorId> sink_ids;
    sinks_.resize(sources_n_ * fanout_);
    for (std::size_t p = 0; p < sinks_.size(); ++p) {
      auto dev = std::make_unique<core::LambdaDevice>(
          "sink" + std::to_string(p), core::make_sink_shape("in", octet_stream()),
          [this, p](const std::string&, const core::Message& msg) {
            on_deliver(p, msg);
            return ok_result();
          });
      auto id = b_->map(std::move(dev));
      require(id.ok(), "map sink");
      sink_ids.push_back(id.value());
    }
    sched_.run_for(sim::seconds(2));

    core::QosPolicy qos;
    qos.message_ttl = kTtl;
    for (std::size_t p = 0; p < sinks_.size(); ++p) {
      auto path = a_->transport().connect(core::PortRef{src_ids[p / fanout_], "out"},
                                          core::PortRef{sink_ids[p], "in"}, qos);
      require(path.ok(), "fixed path connect");
      paths_.push_back(path.value());
    }
    // One warm-up message per source brings the UMTP link up on every path.
    for (std::size_t s = 0; s < sources_n_; ++s) emit(s, kWarmupSeq);
    sched_.run_for(sim::seconds(1));
    for (const Sink& sink : sinks_) require(sink.warm, "warm-up delivered on every path");
  }

  void begin() override {
    t0_ = sched_.now();
    end_ = t0_ + sim::Duration(due_.back()) + sim::seconds(15);
    for (const auto& [from, to] : cuts_) {
      net_.faults().cut(lan_, t0_ + sim::Duration(from), t0_ + sim::Duration(to));
    }
    for (std::size_t p = 0; p < paths_.size(); ++p) base_.push_back(*a_->transport().stats(paths_[p]));
    expired0_ = counter("delivery.expired");
    outage0_ = counter("recovery.outage_dropped");
    unacked0_ = counter("delivery.unacked_dropped");
    schedule_emit(0);
  }

  bool advance() override { return sched_.now() < end_; }

  RoundOutput finish() override {
    RoundOutput out;
    out.attempted = emits_ * fanout_;
    out.completed = good_;
    out.failed = bad_;
    out.latency_ns = std::move(latency_);
    out.payload_bytes = payload_;
    out.span = last_rx_ - t0_;
    if (bad_ != 0) {
      out.errors.push_back(std::to_string(bad_) +
                           " deliveries duplicated, reordered or corrupted");
    }
    if (emit_failures_ != 0) {
      out.errors.push_back(std::to_string(emit_failures_) + " emits refused");
    }
    // Conservation per PathStats: every offered message left its path's
    // buffer as forwarded, dropped or expired.
    std::uint64_t forwarded = 0, path_dropped = 0, path_expired = 0;
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      const core::PathStats* st = a_->transport().stats(paths_[p]);
      if (st == nullptr || st->buffered_bytes != 0) {
        out.errors.push_back("path " + std::to_string(p) + " missing or not drained");
        continue;
      }
      forwarded += st->messages_forwarded - base_[p].messages_forwarded;
      path_dropped += st->messages_dropped - base_[p].messages_dropped;
      path_expired += st->messages_expired - base_[p].messages_expired;
    }
    if (forwarded + path_dropped + path_expired != out.attempted) {
      out.errors.push_back("paths account for " +
                           std::to_string(forwarded + path_dropped + path_expired) + " of " +
                           std::to_string(out.attempted) + " offered messages");
    }
    // End to end: offered = delivered + expired (anywhere) + dropped.
    const std::uint64_t expired = counter("delivery.expired") - expired0_;
    const std::uint64_t dropped = path_dropped + (counter("recovery.outage_dropped") - outage0_) +
                                  (counter("delivery.unacked_dropped") - unacked0_);
    if (good_ + bad_ + expired + dropped != out.attempted) {
      out.errors.push_back("conservation: offered " + std::to_string(out.attempted) +
                           " != delivered " + std::to_string(good_ + bad_) + " + expired " +
                           std::to_string(expired) + " + dropped " + std::to_string(dropped));
    }
    return out;
  }

  std::vector<HostRole> hosts() const override { return {{"node-a", true}, {"node-b", true}}; }

 private:
  static constexpr std::size_t kPatternSpan = 4096;
  static constexpr std::uint64_t kWarmupSeq = ~std::uint64_t{0};

  struct Sink {
    bool warm = false;
    std::uint64_t next = 0;  ///< smallest sequence number still acceptable
  };

  std::uint64_t counter(std::string_view name) {
    // Snapshot lookups only: these delivery counters register lazily, and
    // creating them here would change the world's metrics.
    auto snap = net_.metrics().snapshot();
    const obs::SnapshotEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->count;
  }

  const std::uint8_t* body_of(std::uint64_t k) const {
    return pattern_.data() + (k * 37) % kPatternSpan;
  }

  std::size_t size_of(std::uint64_t k) const { return k < emits_ ? sizes_[k] : kMinMessage; }

  void emit(std::size_t source, std::uint64_t k) {
    core::Message msg;
    msg.type = octet_stream();
    msg.payload.assign(body_of(k), body_of(k) + size_of(k));
    put_u64(msg.payload.data(), k);
    if (!sources_[source]->emit("out", std::move(msg)).ok()) ++emit_failures_;
  }

  void schedule_emit(std::uint64_t k) {
    sched_.schedule_at(t0_ + sim::Duration(due_[k]), [this, k]() {
      emit(k % sources_n_, k);
      if (k + 1 < emits_) schedule_emit(k + 1);
    });
  }

  void on_deliver(std::size_t p, const core::Message& msg) {
    Sink& sink = sinks_[p];
    if (msg.payload.size() < kMinMessage) {
      ++bad_;
      return;
    }
    const std::uint64_t k = get_u64(msg.payload.data());
    if (k == kWarmupSeq) {
      sink.warm = true;
      return;
    }
    // Exactly-once, in order per path: sequence numbers only move forward
    // (expired messages leave gaps), and the payload matches what was sent.
    const bool ok = k < emits_ && k % sources_n_ == p / fanout_ && k >= sink.next &&
                    msg.payload.size() == sizes_[k] &&
                    std::memcmp(msg.payload.data() + 8, body_of(k) + 8, sizes_[k] - 8) == 0;
    if (!ok) {
      ++bad_;
      return;
    }
    sink.next = k + 1;
    ++good_;
    payload_ += sizes_[k];
    last_rx_ = sched_.now();
    latency_.push_back(sched_.now().count() - t0_.count() - due_[k]);
  }

  const std::size_t sources_n_;
  const std::size_t fanout_;
  const std::size_t emits_;
  const Bytes pattern_;
  std::vector<std::int64_t> due_;  ///< emit time of message k, relative to t0_
  std::vector<std::size_t> sizes_;  ///< payload size of message k
  std::vector<std::pair<std::int64_t, std::int64_t>> cuts_;  ///< outage windows, relative to t0_
  net::SegmentId lan_;
  std::unique_ptr<core::Runtime> a_;
  std::unique_ptr<core::Runtime> b_;
  std::vector<core::LambdaDevice*> sources_;
  std::vector<Sink> sinks_;
  std::vector<PathId> paths_;
  std::vector<core::PathStats> base_;
  std::uint64_t expired0_ = 0, outage0_ = 0, unacked0_ = 0;
  sim::TimePoint t0_{0};
  sim::TimePoint end_{0};
  sim::TimePoint last_rx_{0};
  std::uint64_t good_ = 0;
  std::uint64_t bad_ = 0;
  std::uint64_t payload_ = 0;
  std::uint64_t emit_failures_ = 0;
  std::vector<std::int64_t> latency_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mb_echo", "camera_tv", "space_standup",
                                                 "fanout_chaos"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, Size size) {
  if (name == "mb_echo") return std::make_unique<MbEcho>(seed, size);
  if (name == "camera_tv") return std::make_unique<CameraTv>(seed, size);
  if (name == "space_standup") return std::make_unique<SpaceStandup>(seed, size);
  if (name == "fanout_chaos") return std::make_unique<FanoutChaos>(seed, size);
  return nullptr;
}

}  // namespace perfbench
