#include "common/log.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace umiddle::log {
namespace {

struct State {
  std::mutex mu;
  Sink sink;
  Level level = Level::off;
  /// Threshold mirrored for the lock-free enabled() fast path: the configured
  /// level, or off while no sink is installed. Updated under mu.
  std::atomic<Level> effective{Level::off};
};

State& state() {
  static State s;
  return s;
}

void refresh_effective_locked(State& s) {
  s.effective.store(s.sink ? s.level : Level::off, std::memory_order_relaxed);
}

}  // namespace

void set_sink(Sink sink) {
  std::lock_guard lock(state().mu);
  state().sink = std::move(sink);
  refresh_effective_locked(state());
}

void set_level(Level level) {
  std::lock_guard lock(state().mu);
  state().level = level;
  refresh_effective_locked(state());
}

bool enabled(Level level) {
  const Level threshold = state().effective.load(std::memory_order_relaxed);
  return level >= threshold && threshold != Level::off;
}

void write(Level level, std::string_view component, std::string_view message) {
  std::lock_guard lock(state().mu);
  if (level < state().level || !state().sink) return;
  state().sink(level, component, message);
}

void enable_stderr(Level level) {
  set_level(level);
  set_sink([](Level l, std::string_view component, std::string_view message) {
    std::cerr << to_string(l) << " [" << component << "] " << message << "\n";
  });
}

}  // namespace umiddle::log
