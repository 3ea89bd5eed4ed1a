// Prints every paper-vs-measured table of EXPERIMENTS.md from the scenario
// table, in virtual time, so every number is deterministic.
//
//   repro                   print the tables
//   repro --update-goldens  also rewrite tests/golden/<scenario>.json, the
//                           values tests/reproduction_test checks
//
// The goldens have no other writer: a deliberate re-baseline is this command
// and the JSON diff it leaves.
#include <cstdio>
#include <cstring>
#include <string_view>

#include "scenarios.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace umiddle;
using repro::Outcome;
using repro::World;

double ms(std::int64_t ns) { return sim::to_millis(sim::Duration(ns)); }
double secs(std::int64_t ns) { return sim::to_seconds(sim::Duration(ns)); }

void print_fig10(const Outcome& o) {
  struct Row {
    const char* label;
    const char* world;
    const char* paper;
  };
  constexpr Row kRows[] = {
      {"UPnP clock (14 ports + 2 entities)", "upnp_clock", " >1.4 s (~0.7 inst/s)"},
      {"UPnP light", "upnp_light", " ~4 inst/s"},
      {"UPnP air conditioner", "upnp_aircon", " ~4 inst/s"},
      {"Bluetooth HIDP mouse", "bt_mouse", " ~5 inst/s"},
      {"Bluetooth BIP camera", "bt_camera", " (not shown)"},
  };
  std::printf("\n=== Figure 10: service-level bridging (translator instantiation) ===\n");
  std::printf("%-38s %12s %12s   %s\n", "device", "mapping [s]", "inst/s", "paper");
  for (const Row& row : kRows) {
    double seconds = secs(o.world(row.world).at("mapping_ns"));
    std::printf("%-38s %12.3f %12.2f   %s\n", row.label, seconds,
                seconds > 0 ? 1.0 / seconds : 0.0, row.paper);
  }
  std::printf("\n");
}

void print_sec52(const Outcome& o) {
  const World& light = o.world("upnp_light");
  const World& mouse = o.world("bt_mouse");
  const World& bridged = o.world("camera_to_tv");
  const double total_ms = ms(light.at("total_ns")) / static_cast<double>(light.at("actions"));
  const double native_ms = ms(light.at("native_ns")) / static_cast<double>(light.at("actions"));
  const double mouse_ms = ms(mouse.at("total_ns")) / static_cast<double>(mouse.at("events"));
  const double bridged_ms = ms(bridged.at("total_ns")) / static_cast<double>(bridged.at("photos"));
  std::printf("\n=== Section 5.2: device-level bridging (100 operations each) ===\n");
  std::printf("%-28s %10s %10s %10s   %s\n", "case", "total[ms]", "native[ms]",
              "uMiddle[ms]", "paper");
  std::printf("%-28s %10.1f %10.1f %10.1f   160 total / 150 UPnP / ~10 uMiddle\n",
              "UPnP light SetPower", total_ms, native_ms, total_ms - native_ms);
  std::printf("%-28s %10.1f %10s %10.1f   23 ms overhead per event\n",
              "Bluetooth mouse event", mouse_ms, "-", mouse_ms);
  std::printf("%-28s %10.1f %10s %10s   Fig. 5 pipeline (10 photos)\n",
              "camera -> TV (cross-node)", bridged_ms, "-", "-");
  std::printf("\n");
}

double mbps(const World& w) {
  return static_cast<double>(w.at("bytes")) * 8.0 / repro::kWindowS / 1e6;
}

void print_fig11(const Outcome& o) {
  struct Row {
    const char* label;
    const char* world;
    const char* paper;
  };
  constexpr Row kRows[] = {
      {"TCP baseline", "tcp", "7.9"},
      {"MB test", "mb_echo", "6.2"},
      {"RMI test", "rmi", "3.2"},
      {"RMI-MB test", "rmi_mb", "2.9"},
  };
  std::printf("\n=== Figure 11: transport-level bridging (1400-B messages, 10 Mbps) ===\n");
  std::printf("%-14s %16s %16s   %s\n", "test", "hub[Mbps]", "switch[Mbps]", "paper[Mbps]");
  for (const Row& row : kRows) {
    const std::string world = row.world;
    std::printf("%-14s %16.2f %16.2f   %s\n", row.label, mbps(o.world(world + "_half_duplex")),
                mbps(o.world(world + "_full_duplex")), row.paper);
  }
  std::printf("(hub = strict half-duplex shared medium; switch = non-blocking full duplex)\n\n");
}

void print_ablation_a(const Outcome& o) {
  std::printf("\n=== Ablation A: direct vs mediated translation scaling (§2.2.1) ===\n");
  std::printf("%6s %12s %12s %16s %16s %8s\n", "types", "direct #", "mediated #",
              "direct[s]", "mediated[s]", "ratio");
  for (std::size_t n : {2, 4, 8, 16, 32, 64}) {
    const double mediated_s = secs(o.world("mediated_n" + std::to_string(n)).at("standup_ns"));
    const double direct_s = secs(o.world("direct_n" + std::to_string(n)).at("standup_ns"));
    std::printf("%6zu %12zu %12zu %16.2f %16.2f %8.1fx\n", n, n * (n - 1), n, direct_s,
                mediated_s, direct_s / mediated_s);
  }
  std::printf("(instantiation cost model identical per translator; the gap is purely the\n"
              " n(n-1) vs n translator population the two architectures require)\n\n");
}

void print_ablation_b(const Outcome& o) {
  std::printf("\n=== Ablation B: coarse vs fine-grained compatibility (§2.2.3) ===\n");
  std::printf("%8s %18s %22s %20s\n", "devices", "same-type pairs",
              "usable under coarse", "usable under fine");
  for (const World& w : o.worlds) {
    std::printf("%8lld %18lld %22lld %20lld\n", static_cast<long long>(w.at("devices")),
                static_cast<long long>(w.at("same_type_pairs")),
                static_cast<long long>(w.at("coarse_usable")),
                static_cast<long long>(w.at("fine_usable")));
  }
  std::printf("(coarse matching composes same-type devices only — producer/producer or\n"
              " consumer/consumer pairs that carry no media, so zero usable compositions;\n"
              " fine-grained matching composes every producer with every type-compatible\n"
              " consumer across device types — the paper's MediaRenderer/Printer argument)\n\n");
}

double kb(const World& w) { return static_cast<double>(w.at("max_buffered_bytes")) / 1e3; }

void print_ablation_c(const Outcome& o) {
  std::printf("\n=== Ablation C: QoS control of the translation buffer (§5.3/§7) ===\n");
  std::printf("\nScenario 1 — sustained overload (1.4 MB/s offered, 0.35 MB/s sink, 20 s)\n");
  std::printf("%-10s %12s %10s %18s\n", "policy", "delivered", "dropped", "max buffer [kB]");
  for (const auto& [policy, note] : {std::pair{"none", "the paper's accumulation"},
                                     std::pair{"bounded", "bounded translation buffer"}}) {
    const World& w = o.world(std::string("overload_") + policy);
    std::printf("%-10s %12lld %10lld %18.1f   <- %s\n", policy,
                static_cast<long long>(w.at("delivered")),
                static_cast<long long>(w.at("dropped")), kb(w), note);
  }
  std::printf("\nScenario 2 — bursty source, fast sink (64-message bursts, 20 s)\n");
  std::printf("%-10s %12s %22s %18s\n", "policy", "delivered", "peak rate [Mbps/100ms]",
              "max buffer [kB]");
  for (const auto& [policy, note] : {std::pair{"none", "bursts pass through"},
                                     std::pair{"shaped", "token bucket smooths"}}) {
    const World& w = o.world(std::string("bursty_") + policy);
    const double peak_mbps = static_cast<double>(w.at("peak_bytes_100ms")) * 8.0 /
                             sim::to_seconds(sim::milliseconds(100)) / 1e6;
    std::printf("%-10s %12lld %22.2f %18.1f   <- %s\n", policy,
                static_cast<long long>(w.at("delivered")), peak_mbps, kb(w), note);
  }
  std::printf("\n");
}

void print_ablation_e(const Outcome& o) {
  std::printf("\n=== Ablation E: location of the interoperability layer (§2.2.4) ===\n");
  std::printf("%-52s %12s\n", "path", "latency [ms]");
  std::printf("%-52s %12.2f\n", "at-the-edge: device -> device (eth, 1400 B)",
              ms(o.world("at_the_edge").at("latency_ns")));
  std::printf("%-52s %12.2f\n", "infrastructure: src -> uMiddle -> sink (eth, 1400 B)",
              ms(o.world("infrastructure").at("latency_ns")));
  std::printf("%-52s %12.2f\n", "infrastructure: BT camera -> uMiddle -> UPnP TV (45 kB)",
              ms(o.world("cross_transport").at("latency_ns")));
  std::printf("%-52s %12s\n", "at-the-edge: radio device -> ethernet device",
              o.world("radio_to_ethernet").at("connects") == 1 ? "POSSIBLE (?)" : "impossible");
  std::printf("(the infrastructure pays one translation + an extra hop per message and\n"
              " buys cross-transport reach with unmodified devices — the paper's 4-b"
              " choice)\n\n");
}

void print_fault_recovery(const Outcome& o) {
  std::printf("\n=== DESIGN.md §10: bridge recovery after a LAN partition ===\n");
  std::printf("%-14s %16s %16s\n", "outage[s]", "reconnect[ms]", "replay+render[ms]");
  for (const World& w : o.worlds) {
    std::printf("%-14.1f %16.1f %16.1f\n", secs(w.at("outage_ns")), ms(w.at("reconnect_ns")),
                ms(w.at("recover_ns")) - ms(w.at("reconnect_ns")));
  }
  std::printf("(reconnect = backoff remainder straddling the heal, capped at\n"
              " 1.5 * reconnect_cap; replay+render is ~constant)\n\n");
}

void print_overload(const Outcome& o) {
  constexpr const char* kPolicies[][2] = {
      {"drop_newest", "<- tail drop: stale survivors"},
      {"drop_oldest", "<- head drop: recency wins"},
      {"latest_only", "<- freshest only"},
      {"block", "<- backpressure: 100% delivered"},
  };
  auto print_row = [&o](const char* policy, const std::string& world, const char* note) {
    const World& w = o.world(world);
    const double mean_ms = w.at("latencies") == 0
                               ? 0
                               : static_cast<double>(w.at("latency_sum_ns")) /
                                     static_cast<double>(w.at("latencies")) / 1e6;
    std::printf("%-12s %8lld %10lld %8lld %9lld %9lld %12.1f %10.1f %8lld   %s\n", policy,
                static_cast<long long>(w.at("offered")), static_cast<long long>(w.at("delivered")),
                static_cast<long long>(w.at("shed")), static_cast<long long>(w.at("expired")),
                static_cast<long long>(w.at("blocked")), kb(w), mean_ms,
                static_cast<long long>(w.at("last_n")), note);
  };
  std::printf("\n=== Overload: shedding policies and the delivery contract (DESIGN.md §11) ===\n");
  std::printf("\nScenario 1 — 10x overload, 16 kB buffer, no deadline (2000 offered)\n");
  std::printf("%-12s %8s %10s %8s %9s %9s %12s %10s %8s\n", "policy", "offered", "delivered",
              "shed", "expired", "blocked", "high-water", "mean-lat", "last-n");
  for (const auto& [policy, note] : kPolicies) {
    print_row(policy, std::string("shed_") + policy, note);
  }
  std::printf("\nScenario 2 — same overload with a 60 ms per-path deadline (2000 offered)\n");
  std::printf("%-12s %8s %10s %8s %9s %9s %12s %10s %8s\n", "policy", "offered", "delivered",
              "shed", "expired", "blocked", "high-water", "mean-lat", "last-n");
  for (const auto& [policy, note] : kPolicies) {
    print_row(policy, std::string("deadline_") + policy,
              "<- stale messages expire, never delivered late");
  }
  std::printf("\n");
}

constexpr struct {
  const char* scenario;
  void (*print)(const Outcome&);
} kPrinters[] = {
    {"fig10", print_fig10},
    {"sec52", print_sec52},
    {"fig11", print_fig11},
    {"ablation_a", print_ablation_a},
    {"ablation_b", print_ablation_b},
    {"ablation_c", print_ablation_c},
    {"ablation_e", print_ablation_e},
    {"fault_recovery", print_fault_recovery},
    {"overload", print_overload},
};

}  // namespace

int main(int argc, char** argv) {
  const bool update = argc == 2 && std::strcmp(argv[1], "--update-goldens") == 0;
  if (argc > 2 || (argc == 2 && !update)) {
    std::fprintf(stderr, "usage: %s [--update-goldens]\n", argv[0]);
    return 2;
  }
  for (const auto& [name, print] : kPrinters) {
    const Outcome outcome = repro::scenario(name).run();
    print(outcome);
    std::fflush(stdout);
    if (update && !repro::write_golden(name, repro::rows(outcome))) {
      std::fprintf(stderr, "repro: cannot write the golden of %s\n", name);
      return 1;
    }
  }
  return 0;
}
