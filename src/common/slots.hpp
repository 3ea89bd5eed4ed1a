// Objects parked under a small integer key while a scheduled event is in
// flight. The event captures the key, which fits sim::Callback's inline
// buffer where the object would not (DESIGN.md §8.1). Freed keys are reused,
// so a steady stream of put/take allocates nothing once the table has grown
// to the most objects ever parked at once.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace umiddle {

template <typename T>
class Slots {
 public:
  /// Park `value`; the key stays valid until take() or clear().
  std::uint32_t put(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t key = free_.back();
    free_.pop_back();
    slots_[key] = std::move(value);
    return key;
  }

  T& operator[](std::uint32_t key) { return slots_[key]; }

  /// Move the object out and free its key.
  T take(std::uint32_t key) {
    free_.push_back(key);
    return std::move(slots_[key]);
  }

  /// Forget every parked object, for an owner whose pending events will
  /// never run.
  void clear() {
    slots_.clear();
    free_.clear();
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace umiddle
