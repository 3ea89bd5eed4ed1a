// Ablation B's lookup cost (paper §2.2.3): host CPU time of a directory-style
// query under coarse-grained (type name) and fine-grained (port type)
// matching, and of the real core::Directory lookup. The coverage half of the
// ablation is the virtual-time `ablation_b` scenario (bench/scenarios.hpp).
// BM_RouteFanout times the other side of dynamic binding: one emit through
// Transport::route into the paths of its source.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rand.hpp"
#include "core/umiddle.hpp"
#include "scenarios.hpp"

namespace {

using namespace umiddle;
using repro::Device;
using repro::make_population;

void BM_FineLookup(benchmark::State& state) {
  Rng rng(42);
  auto devices = make_population(static_cast<std::size_t>(state.range(0)), rng);
  core::Query query = core::Query().digital_input(MimeType::of("image/*"));
  std::size_t hits = 0;
  for (auto _ : state) {
    for (const Device& d : devices) {
      if (query.matches_shape(d.shape)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_CoarseLookup(benchmark::State& state) {
  Rng rng(42);
  auto devices = make_population(static_cast<std::size_t>(state.range(0)), rng);
  std::string wanted = "MediaRenderer";
  std::size_t hits = 0;
  for (auto _ : state) {
    for (const Device& d : devices) {
      if (d.type_name == wanted) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_FineLookup)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_CoarseLookup)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/// A directory populated with `n` translators drawn from the blueprint
/// population — the real `core::Directory` hot path, not a raw shape scan.
/// The runtime is not start()ed: no sockets, no timers, no announcements —
/// the lookup benchmarks measure lookup cost only.
struct DirectoryWorld {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  std::unique_ptr<core::Runtime> runtime;

  explicit DirectoryWorld(std::size_t n) {
    net::SegmentId lan = net.add_segment(net::SegmentSpec{});
    (void)net.add_host("bench").ok();
    (void)net.attach("bench", lan).ok();
    core::RuntimeConfig cfg;
    cfg.node_id = 1;
    runtime = std::make_unique<core::Runtime>(sched, net, "bench", cfg);
    Rng rng(7);
    auto devices = make_population(n, rng);
    for (std::size_t i = 0; i < devices.size(); ++i) {
      core::TranslatorProfile profile;
      profile.id = TranslatorId(i + 1);
      profile.name = devices[i].type_name + "-" + std::to_string(i);
      profile.platform = "bench";
      profile.device_type = devices[i].type_name;
      profile.node = runtime->node();
      profile.shape = devices[i].shape;
      runtime->directory().publish_local(profile);
    }
  }
};

// Sparse-hit query: audio consumers are ~1/9 of the blueprint population, so
// the lookup cost is dominated by deciding who matches, not by copying the
// result.
void BM_DirectoryLookup(benchmark::State& state) {
  DirectoryWorld world(static_cast<std::size_t>(state.range(0)));
  const core::Directory& dir = world.runtime->directory();
  core::Query query = core::Query().digital_input(MimeType::of("audio/wav"));
  std::size_t hits = 0;
  for (auto _ : state) {
    auto out = dir.lookup(query);
    hits += out.size();
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// Capability miss: the application probes for a media type nobody provides
// (every failed connect() and every re-bind poll pays this path).
void BM_DirectoryLookupMiss(benchmark::State& state) {
  DirectoryWorld world(static_cast<std::size_t>(state.range(0)));
  const core::Directory& dir = world.runtime->directory();
  core::Query query = core::Query().digital_input(MimeType::of("video/mp4"));
  std::size_t hits = 0;
  for (auto _ : state) {
    auto out = dir.lookup(query);
    hits += out.size();
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_DirectoryLookup)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_DirectoryLookupMiss)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// space_standup's soft-state refresh (Ablation A): one started runtime with
// `n` local translators re-announces them every max_age/3. One iteration
// advances virtual time by one refresh period: one tick, then the delivery of
// every advert it sent (the runtime's own group membership loops each back).
void BM_DirectoryRefresh(benchmark::State& state) {
  DirectoryWorld world(static_cast<std::size_t>(state.range(0)));
  (void)world.runtime->start().ok();
  const sim::Duration period = world.runtime->directory().max_age() / 3;
  world.sched.run_until(period / 2);  // start() built and sent every advert
  for (auto _ : state) world.sched.run_for(period);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_DirectoryRefresh)->Arg(4032);

// fanout_chaos's shape on one runtime: `n` local paths spread over 8
// sources, each to its own sink. One iteration is one emit, from the next
// source in turn, run to idle: route() visits the source's paths, each
// path translates and delivers. The runtime is never start()ed, so no timer
// keeps the scheduler busy.
void BM_RouteFanout(benchmark::State& state) {
  constexpr std::size_t kSources = 8;
  DirectoryWorld world(0);
  core::Runtime& rt = *world.runtime;
  const MimeType type = MimeType::of("application/octet-stream");
  std::vector<core::LambdaDevice*> sources;
  for (std::size_t i = 0; i < kSources; ++i) {
    auto src = std::make_unique<core::LambdaDevice>("src", core::make_source_shape("out", type));
    sources.push_back(src.get());
    (void)rt.map(std::move(src)).ok();
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    auto sink =
        rt.map(std::make_unique<core::LambdaDevice>("sink", core::make_sink_shape("in", type)));
    (void)rt.transport()
        .connect({sources[i % kSources]->profile().id, "out"}, {sink.value(), "in"})
        .ok();
  }
  core::Message msg;
  msg.type = type;
  msg.payload = Bytes(256, 0x5A);
  std::size_t next = 0;
  for (auto _ : state) {
    (void)sources[next++ % kSources]->emit("out", msg).ok();
    world.sched.run();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_RouteFanout)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
