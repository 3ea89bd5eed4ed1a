// Leveled logging with a process-wide sink. Examples install a stderr sink;
// tests leave logging off so output stays clean.
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace umiddle::log {

enum class Level { trace, debug, info, warn, error, off };

constexpr const char* to_string(Level l) {
  switch (l) {
    case Level::trace: return "TRACE";
    case Level::debug: return "DEBUG";
    case Level::info: return "INFO";
    case Level::warn: return "WARN";
    case Level::error: return "ERROR";
    case Level::off: return "OFF";
  }
  return "?";
}

using Sink = std::function<void(Level, std::string_view component, std::string_view message)>;

/// Replace the process-wide sink (empty sink disables output).
void set_sink(Sink sink);
void set_level(Level level);

/// True iff a statement at `level` would reach the sink. Lock-free fast path
/// (single relaxed atomic load) so hot loops can log unconditionally and pay
/// nothing when logging is off or below threshold.
bool enabled(Level level);

void write(Level level, std::string_view component, std::string_view message);

/// Stream-style one-shot log statement: Entry(Level::info, "upnp") << "found " << n;
///
/// When the level is disabled (or no sink is installed) the ostringstream is
/// never constructed and operator<< never formats — the whole statement costs
/// one atomic load. The component must outlive the statement (string literals
/// in practice), hence string_view.
class Entry {
 public:
  Entry(Level level, std::string_view component) : level_(level), component_(component) {
    if (enabled(level)) stream_.emplace();
  }
  Entry(const Entry&) = delete;
  Entry& operator=(const Entry&) = delete;
  ~Entry() {
    if (stream_) write(level_, component_, std::move(*stream_).str());
  }

  template <typename T>
  Entry& operator<<(const T& v) {
    if (stream_) *stream_ << v;
    return *this;
  }

 private:
  Level level_;
  std::string_view component_;
  std::optional<std::ostringstream> stream_;
};

/// Install a sink that writes "LEVEL [component] message" lines to stderr.
void enable_stderr(Level level = Level::info);

}  // namespace umiddle::log
