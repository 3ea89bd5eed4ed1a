// Per-world metrics: counters, gauges, fixed-bucket histograms.
//
// The paper evaluates uMiddle by measuring discovery latency, translation
// overhead, and wire time (§5); this registry turns every simulation run into
// that experiment. Design rules (DESIGN.md §9):
//
//   * A registry belongs to ONE world — it is owned by net::Network, next to the
//     seeded Rng and the node-ordinal counter. Process-global instruments are
//     banned (tools/lint.py rule "global-telemetry"): a second same-seed run in
//     the same process must observe identical values.
//   * All state is integral (counts, int64 sums, virtual-time nanoseconds).
//     No floats, no wall clock — snapshots of two same-seed runs are
//     byte-identical, and tests/obs_test.cpp asserts it.
//   * Snapshot order is registration order, which is itself deterministic
//     because worlds construct their runtimes in a fixed order.
//
// Instruments are stored in deques, so references handed out by counter()/
// gauge()/histogram() stay valid for the registry's lifetime — call sites keep
// `obs::Counter&` members and increment without any lookup on the hot path.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace umiddle::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time value (queue depth, high-water mark, sampled total).
class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Fixed-bucket histogram over int64 values (typically virtual nanoseconds).
///
/// `bounds` are ascending inclusive upper bounds: bucket i counts observations
/// with `v <= bounds[i]`; one extra overflow bucket counts everything larger.
/// There is no explicit underflow bucket — bucket 0 absorbs anything at or
/// below bounds[0], however negative. count/sum/min/max are tracked exactly.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t v);

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return min_; }  ///< 0 until the first observe
  std::int64_t max() const { return max_; }  ///< 0 until the first observe

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> buckets_;  ///< size = bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Exponential-ish virtual-time bucket bounds (1us .. 10s), for latency
/// histograms. A free function, not a static table: no global state.
std::vector<std::int64_t> latency_bounds_ns();

/// One instrument's values, copied out of the registry at snapshot time.
struct SnapshotEntry {
  enum class Kind { counter, gauge, histogram };
  std::string name;
  Kind kind = Kind::counter;
  std::uint64_t count = 0;  ///< counter value / histogram count
  std::int64_t value = 0;   ///< gauge value / histogram sum
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::vector<std::int64_t> bounds;     ///< histograms only
  std::vector<std::uint64_t> buckets;   ///< histograms only
};

struct Snapshot {
  std::vector<SnapshotEntry> entries;  ///< registration order
  const SnapshotEntry* find(std::string_view name) const;
};

/// The per-world instrument registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The first registration of a name fixes its kind; asking
  /// for the same name as a different kind creates a fresh (shadowed) entry —
  /// a programming error that stays visible as a duplicate name in snapshots.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<std::int64_t> bounds);

  /// Collectors run (in registration order) at the top of snapshot(); use them
  /// to sample state that lives elsewhere (scheduler counters, segment stats)
  /// into gauges without coupling those layers to obs.
  void add_collector(std::function<void()> fn);

  /// Run collectors, then copy every instrument in registration order.
  Snapshot snapshot();

  std::size_t size() const { return order_.size(); }

 private:
  struct Ref {
    std::string name;
    SnapshotEntry::Kind kind;
    std::size_t index;  ///< into the deque for `kind`
  };

  Ref* find_ref(std::string_view name, SnapshotEntry::Kind kind);

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Ref> order_;
  std::map<std::string, std::size_t, std::less<>> by_name_;  ///< name -> order_ index
  std::vector<std::function<void()>> collectors_;
};

}  // namespace umiddle::obs
