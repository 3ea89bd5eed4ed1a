// Fixed-work workloads of the repository benchmark (see README.md).
//
// A workload builds one simulated world, brings it to steady state (setup),
// then issues a fixed amount of work. The harness in main.cpp drives that work
// by calling Scheduler::step() and, after every dispatched event, advance() —
// the hook where a workload observes its outputs and issues closed-loop work.
// Workloads use only the simulator's public entry points and check their own
// outputs in finish().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/network.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

/// `full` is the benchmark; `tiny` runs every code path on little work, for
/// the smoke test.
enum class Size { full, tiny };

/// What one round produced, as checked by the workload itself.
struct RoundOutput {
  std::uint64_t attempted = 0;           ///< ops attempted in the measured phase
  std::uint64_t completed = 0;           ///< ops completed with a correct output
  std::uint64_t failed = 0;              ///< ops whose output check failed
  std::vector<std::int64_t> latency_ns;  ///< virtual latency of each completed op
  std::uint64_t payload_bytes = 0;       ///< payload delivered in the measured phase
  umiddle::sim::Duration span{0};        ///< virtual time from begin() to the last delivery
  std::vector<std::string> errors;       ///< failed checks, human-readable
};

/// A simulated host and whether it runs a uMiddle runtime or a native
/// device/service; the traced run splits host CPU by this role.
struct HostRole {
  std::string name;
  bool runtime = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build the world and reach steady state: runtimes started, devices mapped,
  /// paths bound. Throws std::runtime_error if steady state is not reached.
  virtual void setup() = 0;
  /// Issue the fixed work (schedule sends, fault windows, the first request).
  virtual void begin() = 0;
  /// Called after every dispatched event; false once the work is complete.
  virtual bool advance() = 0;
  /// Check every output of the round.
  virtual RoundOutput finish() = 0;
  virtual std::vector<HostRole> hosts() const = 0;

  umiddle::sim::Scheduler& sched() { return sched_; }
  umiddle::net::Network& net() { return net_; }

 protected:
  explicit Workload(std::uint64_t seed) : net_(sched_, seed) {}

  // Declared before the derived classes' members, so the world outlives the
  // runtimes and devices that refer to it.
  umiddle::sim::Scheduler sched_;
  umiddle::net::Network net_;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, Size size);

}  // namespace perfbench
