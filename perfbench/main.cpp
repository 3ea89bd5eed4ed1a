// Repository benchmark harness: host cost per bridged message and per
// simulated event on fixed-work workloads (README.md has the definitions).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//
// A run repeats rounds of one workload — a fresh world, timed setup, then the
// fixed work — until --seconds of wall time have passed, and reports a
// statistic over the rounds (README.md says which and why).
// Every round of a seed must end with the same trace digest and the same
// virtual-time results (the determinism guard). With --trace 1, traced rounds
// alternate with untraced ones: a traced round times every Scheduler::step()
// in thread CPU and charges it to the dispatched event's EventTag.
//
// Human-readable report lines start with "# "; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
// if every output check passed.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using umiddle::sim::host_id;
using umiddle::sim::tag_id;

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The CPUs this process may run on. Rounds rotate over them: on a shared
/// host one vCPU can run ~1.8x slower for seconds at a time, and rotating
/// keeps a run from spending all its rounds on one such vCPU.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

volatile std::uint64_t g_sink = 0;

/// Thread CPU, in ms, of a fixed loop that shares no code with src/: ordered
/// map churn and buffer copies, the allocation-heavy, branchy kind of work the
/// simulator does. It runs before every round, on that round's CPU, as a
/// measure of how fast the machine is running at the time.
double calibration_ms() {
  std::map<std::uint64_t, std::uint64_t> m;
  std::vector<std::uint8_t> buf(4096, 1), out(4096);
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const std::int64_t t0 = thread_cpu_ns();
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 8192] += static_cast<std::uint64_t>(i);
    if (m.size() > 2048) m.erase(m.begin());
    std::memcpy(out.data(), buf.data() + (x % 2048), 1024);
    acc += m.begin()->second + out[x % 1024];
  }
  const std::int64_t t1 = thread_cpu_ns();
  g_sink = acc;
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// calibration_ms() on an uncontended vCPU of the machine the benchmark was
/// defined on (a 4-vCPU KVM guest on an Intel Xeon, model 143). Host costs are
/// reported at that speed: scaled by kCalibrationRefMs over the run's 10th
/// percentile calibration time, so that how busy the machine's neighbours are
/// during a run cancels out.
constexpr double kCalibrationRefMs = 3.0;

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank 10th percentile of per-round host costs. Host contention on
/// a shared machine only ever slows a round (by up to ~1.8x, for seconds at a
/// time), so the fast tail tracks the cost of the code itself; the median
/// tracks how busy the neighbours were.
double lower_decile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() + 9) / 10 - 1];
}

/// Nearest-rank percentile of virtual latencies, in milliseconds.
double percentile_ms(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) * 1e-6;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- EventTag attribution --------------------------------------------------------

/// Every tag label scheduled in src/, with the module it belongs to. Two
/// pseudo-labels refine netsim deliveries by the layer that consumed them:
/// a delivery during which dir.adverts_rx advanced is the directory parsing
/// an advert, one during which umtp.data_frames_rx advanced is the transport
/// decoding a DATA frame.
struct TagInfo {
  const char* label;
  const char* module;
};
constexpr TagInfo kTags[] = {
    {"net.deliver", "netsim"},         {"net.stream.pump", "netsim"},
    {"net.stream.forget", "netsim"},   {"net.stream.release", "netsim"},
    {"net.handshake", "netsim"},       {"fault.cut", "netsim"},
    {"fault.heal", "netsim"},          {"advert_rx", "directory"},
    {"dir.refresh", "directory"},      {"dir.probe-reply", "directory"},
    {"frame_rx", "transport"},         {"umtp.translate", "transport"},
    {"umtp.drain", "transport"},       {"umtp.breaker", "transport"},
    {"umtp.link-close", "transport"},  {"umtp.reconnect", "transport"},
    {"runtime.instantiate", "runtime"}, {"upnp.action", "upnp"},
    {"upnp.marshal", "upnp"},
};
constexpr TagInfo kUntagged{"untagged", "sim"};
constexpr TagInfo kUnknownTag{"other_tag", "sim"};
constexpr const char* kModules[] = {"netsim", "directory", "transport", "runtime", "upnp", "sim"};
constexpr const char* kRoles[] = {"umiddle", "native", "none"};

const TagInfo& tag_info(std::uint64_t tag) {
  static const std::map<std::uint64_t, const TagInfo*> by_id = [] {
    std::map<std::uint64_t, const TagInfo*> m;
    for (const TagInfo& t : kTags) m[tag_id(t.label)] = &t;
    return m;
  }();
  if (tag == 0) return kUntagged;
  auto it = by_id.find(tag);
  return it == by_id.end() ? kUnknownTag : *it->second;
}

std::string self_name(const TagInfo& t) {
  return std::string(t.module) + "." + t.label + ".self_ms";
}

struct Cell {
  std::uint64_t events = 0;
  std::int64_t ns = 0;
};
/// (tag, host) → self time; tag 0 = untagged, host 0 = no host.
using SelfTable = std::map<std::pair<std::uint64_t, std::uint64_t>, Cell>;

// --- one round -------------------------------------------------------------------

struct Counts {
  std::map<std::string, double> v;
  double get(const std::string& name) const {
    auto it = v.find(name);
    return it == v.end() ? 0 : it->second;
  }
};

Counts read_counts(Workload& wl) {
  Counts c;
  for (const auto& e : wl.net().metrics().snapshot().entries) {
    c.v[e.name] = e.kind == umiddle::obs::SnapshotEntry::Kind::gauge
                      ? static_cast<double>(e.value)
                      : static_cast<double>(e.count);
  }
  c.v["sched.events"] = static_cast<double>(wl.sched().events_dispatched());
  c.v["sched.reaped"] = static_cast<double>(wl.sched().cancellations_reaped());
  c.v["sched.high_water"] = static_cast<double>(wl.sched().heap_high_water());
  return c;
}

struct Round {
  bool traced = false;
  double calib_ms = 0;  ///< calibration_ms() run just before this round
  double setup_s = 0;
  double cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  RoundOutput out;
  Counts before, after;
  SelfTable self;
  std::vector<HostRole> hosts;

  double delta(const std::string& name) const { return after.get(name) - before.get(name); }
  double us_per_op() const { return ratio(cpu_s * 1e6, static_cast<double>(out.completed)); }
  double ns_per_event() const { return ratio(cpu_s * 1e9, static_cast<double>(events)); }
};

Round run_round(const std::string& name, std::uint64_t seed, Size size, bool traced) {
  Round r;
  r.traced = traced;
  auto wl = make_workload(name, seed, size);
  const double w0 = wall_s();
  wl->setup();
  r.setup_s = wall_s() - w0;
  r.hosts = wl->hosts();
  r.before = read_counts(*wl);
  umiddle::sim::Scheduler& sched = wl->sched();
  const std::uint64_t ev0 = sched.events_dispatched();

  if (!traced) {
    const std::int64_t c0 = thread_cpu_ns();
    wl->begin();
    while (sched.step() && wl->advance()) {
    }
    r.cpu_s = static_cast<double>(thread_cpu_ns() - c0) * 1e-9;
  } else {
    // The counters' values are read only, never created (both are registered
    // when the runtimes are constructed).
    const umiddle::obs::Counter& adverts = wl->net().metrics().counter("dir.adverts_rx");
    const umiddle::obs::Counter& frames = wl->net().metrics().counter("umtp.data_frames_rx");
    const std::uint64_t advert_rx = tag_id("advert_rx");
    const std::uint64_t frame_rx = tag_id("frame_rx");
    sched.trace_recorder().enable(1);
    const std::int64_t c0 = thread_cpu_ns();
    wl->begin();
    for (;;) {
      const std::uint64_t a0 = adverts.value();
      const std::uint64_t f0 = frames.value();
      const std::int64_t t0 = thread_cpu_ns();
      const bool stepped = sched.step();
      const std::int64_t t1 = thread_cpu_ns();
      if (!stepped) break;
      const umiddle::sim::TraceRecord rec = sched.trace_recorder().snapshot().back();
      std::uint64_t tag = rec.tag;
      if (std::string_view(tag_info(tag).module) == "netsim") {
        if (adverts.value() != a0) {
          tag = advert_rx;
        } else if (frames.value() != f0) {
          tag = frame_rx;
        }
      }
      Cell& cell = r.self[{tag, rec.host}];
      cell.events += 1;
      cell.ns += t1 - t0;
      if (!wl->advance()) break;
    }
    r.cpu_s = static_cast<double>(thread_cpu_ns() - c0) * 1e-9;
  }
  r.events = sched.events_dispatched() - ev0;
  r.after = read_counts(*wl);
  r.out = wl->finish();
  r.digest = sched.trace_digest();
  return r;
}

// --- reporting ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Virtual-time results of a round; the determinism guard compares them
/// across rounds bit for bit.
struct VtResult {
  double p50_ms = 0, p99_ms = 0, goodput_mbps = 0, completed_ratio = 0;
  std::size_t samples = 0;
  bool operator==(const VtResult&) const = default;
};

VtResult vt_of(const Round& r) {
  VtResult v;
  v.samples = r.out.latency_ns.size();
  v.p50_ms = percentile_ms(r.out.latency_ns, 0.50);
  v.p99_ms = percentile_ms(r.out.latency_ns, 0.99);
  const double span_s = umiddle::sim::to_seconds(r.out.span);
  v.goodput_mbps = ratio(static_cast<double>(r.out.payload_bytes) * 8e-6, span_s);
  v.completed_ratio = ratio(static_cast<double>(r.out.completed), static_cast<double>(r.out.attempted));
  return v;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so under a launcher it can report the
/// launcher's peak instead.)
double max_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// Host costs at the reference machine speed (see kCalibrationRefMs).
/// `speed` scales the run's 10th-percentile costs. Each setup, which takes
/// about as long as the calibration loop run just before it on the same CPU,
/// is scaled by that loop's own time.
std::vector<Metric> end_to_end(const std::vector<Round>& rounds, const VtResult& vt,
                               double peak_rss_mb, double speed) {
  std::vector<double> setup, us, ns;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s * kCalibrationRefMs / r.calib_ms);
    if (r.traced) continue;
    us.push_back(r.us_per_op());
    ns.push_back(r.ns_per_event());
  }
  return {
      {"setup_s", "s", median(setup)},
      {"host_us_per_op", "us", lower_decile(us) * speed},
      {"host_ns_per_event", "ns", lower_decile(ns) * speed},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"vt_p50_ms", "ms", vt.p50_ms},
      {"vt_p99_ms", "ms", vt.p99_ms},
      {"vt_goodput_mbps", "Mbit/s", vt.goodput_mbps},
      {"completed_ratio", "1", vt.completed_ratio},
  };
}

/// Per-layer counts of one (untraced) round, normalised per completed op.
std::vector<Metric> layer_counts(const Round& r) {
  const double ops = static_cast<double>(r.out.completed);
  auto per_op = [&](const char* counter) { return ratio(r.delta(counter), ops); };
  const double hits = r.delta("dir.announce_cache_hits");
  const double misses = r.delta("dir.announce_cache_misses");
  const double reconnects = r.delta("recovery.reconnects");
  return {
      {"sim.events_per_op", "count/op", per_op("sched.events")},
      {"sim.heap_high_water", "count", r.after.get("sched.high_water")},
      {"sim.cancellations_reaped", "count", r.delta("sched.reaped")},
      {"netsim.datagrams_per_op", "count/op", per_op("net.udp.datagrams")},
      {"netsim.multicasts_per_op", "count/op", per_op("net.udp.multicasts")},
      {"netsim.stream_connects", "count", r.delta("net.stream.connects")},
      {"directory.adverts_rx_per_op", "count/op", per_op("dir.adverts_rx")},
      {"directory.adverts_tx_per_op", "count/op", per_op("dir.adverts_tx")},
      {"directory.announce_cache_hit_ratio", "1", ratio(hits, hits + misses)},
      {"transport.frames_per_op", "count/op", per_op("umtp.data_frames_tx")},
      {"transport.replays", "count", r.delta("recovery.replays")},
      {"transport.dup_suppressed", "count", r.delta("delivery.dup_suppressed")},
      {"transport.expired", "count", r.delta("delivery.expired")},
      {"transport.reconnects", "count", reconnects},
      {"transport.replays_per_reconnect", "count", ratio(r.delta("recovery.replays"), reconnects)},
      {"upnp.soap_actions_per_op", "count/op", per_op("upnp.soap_actions")},
  };
}

std::string role_of(const std::vector<HostRole>& hosts, std::uint64_t host) {
  for (const HostRole& h : hosts) {
    if (host_id(h.name) == host) return h.runtime ? "umiddle" : "native";
  }
  return "none";
}

std::string host_name(const std::vector<HostRole>& hosts, std::uint64_t host) {
  if (host == 0) return "-";
  for (const HostRole& h : hosts) {
    if (host_id(h.name) == host) return h.name;
  }
  if (host == host_id("faultplane")) return "faultplane";
  char buf[32];
  std::snprintf(buf, sizeof buf, "host-%016" PRIx64, host);
  return buf;
}

/// Self-time metrics of one traced round: per tag, per module, per host role.
std::map<std::string, double> self_metrics(const Round& r) {
  std::map<std::string, double> m;
  for (const TagInfo& t : kTags) m[self_name(t)] = 0;
  m[self_name(kUntagged)] = 0;
  m[self_name(kUnknownTag)] = 0;
  for (const char* mod : kModules) m[std::string(mod) + ".self_ms"] = 0;
  for (const char* role : kRoles) m[std::string("host.") + role + ".self_ms"] = 0;
  double total = 0;
  for (const auto& [key, cell] : r.self) {
    const TagInfo& t = tag_info(key.first);
    const double ms = static_cast<double>(cell.ns) * 1e-6;
    m[self_name(t)] += ms;
    m[std::string(t.module) + ".self_ms"] += ms;
    m["host." + role_of(r.hosts, key.second) + ".self_ms"] += ms;
    total += ms;
  }
  for (const char* mod : kModules) {
    m[std::string(mod) + ".self_share"] = ratio(m[std::string(mod) + ".self_ms"], total);
  }
  m["trace.self_total_ms"] = total;
  return m;
}

std::vector<Metric> per_layer(const std::vector<Round>& rounds, double speed) {
  const Round* untraced = nullptr;
  std::vector<double> us_plain, us_traced;
  std::map<std::string, std::vector<double>> self;
  for (const Round& r : rounds) {
    if (!r.traced) {
      if (untraced == nullptr) untraced = &r;
      us_plain.push_back(r.us_per_op());
      continue;
    }
    us_traced.push_back(r.us_per_op());
    for (const auto& [name, v] : self_metrics(r)) self[name].push_back(v);
  }
  std::vector<Metric> out = layer_counts(*untraced);
  for (const auto& [name, values] : self) {
    const bool share = name.size() > 11 && name.compare(name.size() - 11, 11, ".self_share") == 0;
    out.push_back({name, share ? "1" : "ms", median(values)});
  }
  // Same statistic and scaling as the untraced host_us_per_op, so the
  // difference is the tracing overhead rather than a difference in contention.
  const double traced_us = lower_decile(us_traced) * speed;
  out.push_back({"trace.host_us_per_op", "us", traced_us});
  out.push_back({"trace.overhead_us_per_op", "us", traced_us - lower_decile(us_plain) * speed});
  return out;
}

void print_self_table(const Round& r) {
  std::int64_t total = 0;
  for (const auto& [key, cell] : r.self) total += cell.ns;
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, Cell>> rows(r.self.begin(),
                                                                             r.self.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.ns > b.second.ns; });
  std::printf("# self time by (tag, host), last traced round:\n");
  std::printf("# %-12s %-22s %-16s %10s %12s %7s\n", "module", "tag", "host", "events", "self_ms",
              "share");
  for (const auto& [key, cell] : rows) {
    const TagInfo& t = tag_info(key.first);
    std::printf("# %-12s %-22s %-16s %10" PRIu64 " %12.3f %6.1f%%\n", t.module, t.label,
                host_name(r.hosts, key.second).c_str(), cell.events,
                static_cast<double>(cell.ns) * 1e-6, 100.0 * ratio(static_cast<double>(cell.ns),
                                                                    static_cast<double>(total)));
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Size size = Size::full;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") throw std::invalid_argument("--size full|tiny");
      a.size = value == "tiny" ? Size::tiny : Size::full;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("unknown --workload '" + a.workload + "'");
  }
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace 0|1");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  // Untraced rounds only, or untraced and traced alternating; at least two of
  // each kind so the determinism guard always compares rounds.
  const double start = wall_s();
  const std::vector<int> cpus = allowed_cpus();
  // Peak RSS is taken after the first round: later rounds rebuild the same
  // world, and how far freed memory is reused varies with the round count.
  double peak_rss_mb = 0;
  std::vector<Round> rounds;
  std::size_t plain = 0, traced = 0;
  std::vector<double> calib;
  while (plain < 2 || (args.trace == 1 && traced < 2) || wall_s() - start < args.seconds) {
    if (!cpus.empty()) pin_to(cpus[rounds.size() % cpus.size()]);
    const bool trace_this = args.trace == 1 && traced < plain;
    calib.push_back(calibration_ms());
    rounds.push_back(run_round(args.workload, args.seed, args.size, trace_this));
    rounds.back().calib_ms = calib.back();
    ++(trace_this ? traced : plain);
    if (rounds.size() == 1) peak_rss_mb = max_rss_mb();
  }

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  const VtResult vt = vt_of(rounds.front());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    attempted += r.out.attempted;
    failed += r.out.failed;
    for (const std::string& e : r.out.errors) errors.push_back("round " + std::to_string(i) + ": " + e);
    if (r.digest != rounds.front().digest) {
      errors.push_back("round " + std::to_string(i) + (r.traced ? " (traced)" : "") +
                       ": trace digest differs from round 0");
    }
    if (!(vt_of(r) == vt)) {
      errors.push_back("round " + std::to_string(i) + ": virtual-time results differ from round 0");
    }
  }

  std::printf("# perfbench workload=%s seed=%" PRIu64 " trace=%d rounds=%zu (untraced %zu, traced %zu)\n",
              args.workload.c_str(), args.seed, args.trace, rounds.size(), plain, traced);
  std::printf("# trace_digest=%016" PRIx64 " (every round, traced and untraced, must agree)\n",
              rounds.front().digest);
  std::printf("# ops attempted=%" PRIu64 " completed=%" PRIu64 " per round; vt latency samples=%zu"
              " p50=%.6f ms p99=%.6f ms\n",
              rounds.front().out.attempted, rounds.front().out.completed, vt.samples, vt.p50_ms,
              vt.p99_ms);
  for (const bool t : {false, true}) {
    std::vector<double> us;
    for (const Round& r : rounds) {
      if (r.traced == t) us.push_back(r.us_per_op());
    }
    if (us.empty()) continue;
    std::sort(us.begin(), us.end());
    std::printf("# host_us_per_op over %s rounds: min=%.4f p10=%.4f median=%.4f max=%.4f\n",
                t ? "traced" : "untraced", us.front(), lower_decile(us), median(us), us.back());
  }
  const double speed = kCalibrationRefMs / lower_decile(calib);
  std::vector<double> setup_wall;
  for (const Round& r : rounds) setup_wall.push_back(r.setup_s);
  std::printf("# calibration loop: p10=%.4f ms median=%.4f ms (reference %.1f ms);"
              " host costs scaled by %.4f; unscaled setup median=%.6f s\n",
              lower_decile(calib), median(calib), kCalibrationRefMs, speed, median(setup_wall));
  for (const std::string& e : errors) std::printf("# CHECK FAILED: %s\n", e.c_str());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = end_to_end(rounds, vt, peak_rss_mb, speed);
  } else {
    metrics = per_layer(rounds, speed);
    for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
      if (it->traced) {
        print_self_table(*it);
        break;
      }
    }
  }
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = errors.empty();
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--size full|tiny]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
