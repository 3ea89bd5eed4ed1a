#include "obs/trace.hpp"

#include <algorithm>

namespace umiddle::obs {

std::uint32_t Tracer::intern(std::string_view text) {
  const auto it = std::find(texts_.begin(), texts_.end(), text);
  if (it != texts_.end()) return static_cast<std::uint32_t>(it - texts_.begin());
  texts_.emplace_back(text);
  return static_cast<std::uint32_t>(texts_.size() - 1);
}

void Tracer::stage(std::uint64_t channel, std::uint64_t trace, std::uint64_t span) {
  staged_[channel].push_back({trace, span});
}

std::optional<Tracer::Staged> Tracer::take(std::uint64_t channel) {
  auto it = staged_.find(channel);
  if (it == staged_.end() || it->second.empty()) return std::nullopt;
  Staged staged = it->second.front();
  it->second.pop_front();
  return staged;
}

void Tracer::forget(std::uint64_t channel, sim::TimePoint now) {
  auto it = staged_.find(channel);
  if (it == staged_.end()) return;
  for (const Staged& staged : it->second) end_span(staged.span, now);
  staged_.erase(it);
}

}  // namespace umiddle::obs
