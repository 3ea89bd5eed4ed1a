// The paper's virtual-time experiments as one table of scenarios
// (EXPERIMENTS.md): Fig. 10, §5.2, Fig. 11, Ablations A/B/C/E, fault
// recovery and overload. Each scenario returns its outcome as exact integers
// (ns, bytes, counts); Mbit/s and ms exist only in the printer.
// tests/reproduction_test compares every outcome with its committed golden,
// and bench/repro prints the tables and is the goldens' only writer. The
// golden comparison also pins the determinism and chaos suites' digests
// (tests/golden.hpp) and the example programs' outputs
// (tests/example_golden_test).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/shape.hpp"
#include "netsim/network.hpp"

namespace umiddle {
class Rng;
}

namespace umiddle::repro {

/// One simulated world's outcome: its results in a fixed order, and for a
/// world with a scheduler the trace digest and every fate counter it
/// registered (core::fate_counter names).
struct World {
  explicit World(std::string world = {}) : name(std::move(world)) {}

  std::string name;
  std::vector<std::pair<std::string, std::int64_t>> values;
  std::optional<std::uint64_t> digest;
  std::vector<std::pair<std::string, std::uint64_t>> fates;
  std::size_t instruments = 0;  ///< entries in the world's metrics snapshot

  void add(std::string key, std::int64_t value) { values.emplace_back(std::move(key), value); }
  /// Snapshot the world's digest, fate counters and metrics size.
  void capture(const sim::Scheduler& sched, net::Network& net);
  /// The value of `key`, or -1 when the run failed before producing it.
  std::int64_t at(std::string_view key) const;
};

struct Outcome {
  std::vector<World> worlds;
  /// The world called `name`; an empty one when there is none.
  const World& world(std::string_view name) const;
};

struct Scenario {
  const char* name;  ///< golden file stem: tests/golden/<name>.json
  Outcome (*run)();
};

/// Every scenario, in the order EXPERIMENTS.md presents them.
std::span<const Scenario> scenarios();
const Scenario& scenario(std::string_view name);

// --- goldens ------------------------------------------------------------------------

/// A golden file's rows, key → integer as written: each world's values,
/// digest and fate counters, keyed `<world>.<key>`.
using Rows = std::vector<std::pair<std::string, std::string>>;
Rows rows(const Outcome& outcome);
/// Writes tests/golden/<name>.json, one `"key": value` row per line.
bool write_golden(std::string_view name, const Rows& rows);
/// One line per live row that differs from golden `name`, naming the
/// golden file, the key, the golden value and the live value. `exhaustive`
/// also reports golden rows the live rows lack.
std::vector<std::string> golden_diff(std::string_view name, const Rows& live, bool exhaustive);
/// Text goldens (the example outputs, tests/golden/examples/): `file` is the
/// path under tests/golden/ and the rows are lines, keyed `line <n>`, through
/// the same comparison as golden_diff.
bool write_golden_text(std::string_view file, std::string_view text);
std::vector<std::string> golden_text_diff(std::string_view file, std::string_view live);

// --- shared with the host-CPU lookup benchmarks (bench_matching) -------------------

/// Ablation B's device: coarse-grained type name, fine-grained shape.
struct Device {
  std::string type_name;
  core::Shape shape;
};
/// `n` devices drawn from a 9-blueprint smart-space population in which
/// distinct device types share data types.
std::vector<Device> make_population(std::size_t n, Rng& rng);

/// Fig. 11's measurement window, which turns its byte counts into Mbit/s.
inline constexpr double kWindowS = 10.0;

}  // namespace umiddle::repro
