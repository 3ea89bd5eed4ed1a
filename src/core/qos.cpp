#include "core/qos.hpp"

#include <algorithm>
#include <cmath>

namespace umiddle::core {

void TokenBucket::refill(Nanos now) {
  if (now <= last_) return;
  // Times 1e-9, as sim::to_seconds does: dividing by 1e9 rounds differently,
  // and shaped paths' virtual timings would move.
  double elapsed = static_cast<double>((now - last_).count()) * 1e-9;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  last_ = now;
}

bool TokenBucket::try_consume(std::size_t bytes, Nanos now) {
  refill(now);
  double need = static_cast<double>(bytes);
  // Allow single messages larger than the burst to pass once the bucket is
  // full (otherwise they would starve forever); they drive tokens negative,
  // which delays subsequent messages — standard bucket-debt behaviour.
  if (tokens_ >= need || (need > burst_ && tokens_ >= burst_)) {
    tokens_ -= need;
    return true;
  }
  return false;
}

Nanos TokenBucket::delay_for(std::size_t bytes, Nanos now) {
  refill(now);
  double need = std::min(static_cast<double>(bytes), burst_);
  if (tokens_ >= need) return Nanos(0);
  double missing = need - tokens_;
  double secs = missing / rate_;
  return Nanos(static_cast<std::int64_t>(std::ceil(secs * 1e9)));
}

double TokenBucket::tokens(Nanos now) {
  refill(now);
  return tokens_;
}

}  // namespace umiddle::core
