// Scheduler microbenchmarks (real CPU time): the two queue shapes the
// perfbench workloads give sim::Scheduler (DESIGN.md §8.1).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/scheduler.hpp"

namespace {

using namespace umiddle;

// One directory refresh: `n` frames serialised on one NIC, so their arrival
// times strictly increase, and the next refresh timer armed behind them.
void BM_SchedulerNicBurst(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    const sim::TimePoint start = sched.now();
    for (std::int64_t i = 1; i <= n; ++i) {
      sched.schedule_at(start + sim::microseconds(400 * i), [&fired] { ++fired; });
    }
    sched.schedule_at(start + sim::seconds(600), [&fired] { ++fired; });
    sched.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * (n + 1));
}
BENCHMARK(BM_SchedulerNicBurst)->Arg(4096);

// One event of a chain that re-arms itself at a varied delay; every fourth
// one also posts a zero-delay follow-up.
struct Hop {
  sim::Scheduler* sched;
  std::uint64_t* count;
  void operator()() const {
    const std::uint64_t k = ++*count;
    if (k % 4 == 0) sched->post([] {});
    const auto jitter = static_cast<std::int64_t>((k * 2654435761u) % 97);
    sched->schedule_after(sim::microseconds(1 + jitter), Hop{*this});
  }
};

// Five chains, about as deep as the queues of mb_echo, camera_tv and
// fanout_chaos (3 to 10 keys): one step per iteration.
void BM_SchedulerShallow(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t count = 0;
  for (int chain = 0; chain < 5; ++chain) sched.post(Hop{&sched, &count});
  for (auto _ : state) sched.step();
  benchmark::DoNotOptimize(count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerShallow);

}  // namespace

BENCHMARK_MAIN();
