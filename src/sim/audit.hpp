// Determinism auditor for the discrete-event core.
//
// The reproduction's load-bearing claim is that every whole-system run is
// deterministic: same seed, same event sequence, same results (DESIGN.md §3 and
// the "Correctness & determinism" section). This header provides the machinery
// that *enforces* the claim instead of assuming it:
//
//   - TraceDigest: a word-wise rolling hash. The scheduler absorbs every
//     dispatched event (virtual time, sequence number, host id, event tag) into
//     one of these; two same-seed runs must end with byte-identical digests.
//     Each word costs one xor, one multiply and one xor-shift, so the hook is
//     always on, release builds included (DESIGN.md §7.1).
//
//   - TraceRecorder: an optional bounded record of recent dispatches. When a
//     digest mismatch is found, two recorders from the diverging runs can be
//     diffed to pinpoint the first event where the runs disagreed.
//
//   - EventTag / tag_id(): lightweight provenance attached at schedule time.
//     Tags are compile-time byte-wise FNV-1a hashes of short labels
//     ("net.deliver", "umtp.drain"); hosts are runtime hashes of host names.
//     Untagged events digest as zeros, so adopting tags is incremental.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace umiddle::sim {

/// 64-bit rolling hash over a stream of words, one word per step, with the
/// FNV-1a constants. Not cryptographic; collision resistance is irrelevant
/// here — we compare digests of *intended-identical* streams, so any mixing
/// function that is sensitive to order and value works.
class TraceDigest {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ull;

  constexpr void absorb(std::uint64_t word) {
    hash_ ^= word;
    hash_ *= kPrime;
    // A multiply carries differences only upward: without this shift a flip
    // of bit 63 stays bit 63, and a second one in a later word cancels it.
    hash_ ^= hash_ >> 29;
  }

  constexpr std::uint64_t value() const { return hash_; }
  constexpr void reset() { hash_ = kOffsetBasis; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

/// Compile-time FNV-1a of a label; used for event tags so scheduling carries no
/// per-event string allocations.
constexpr std::uint64_t tag_id(std::string_view label) {
  std::uint64_t h = TraceDigest::kOffsetBasis;
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= TraceDigest::kPrime;
  }
  return h;
}

/// Runtime hash of a host name (same function as tag_id; separate name for
/// call-site clarity).
inline std::uint64_t host_id(std::string_view host) { return tag_id(host); }

/// Provenance attached to a scheduled event. Both fields default to zero so
/// existing call sites keep compiling; tagged call sites make digest
/// divergences attributable to a subsystem and host.
struct EventTag {
  std::uint64_t host = 0;  ///< host_id() of the simulated node, or 0
  std::uint64_t tag = 0;   ///< tag_id() of the subsystem label, or 0
};

/// One dispatched event as seen by the auditor.
struct TraceRecord {
  std::int64_t when_ns = 0;
  std::uint64_t seq = 0;
  std::uint64_t host = 0;
  std::uint64_t tag = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Bounded ring of recent TraceRecords, for diagnosing digest mismatches.
/// Disabled (and free) unless enable() is called.
class TraceRecorder {
 public:
  /// Start recording, keeping at most `capacity` most-recent events.
  void enable(std::size_t capacity = 4096);
  void disable();
  bool enabled() const { return capacity_ != 0; }

  void record(const TraceRecord& rec);

  /// Records in dispatch order (oldest first).
  std::vector<TraceRecord> snapshot() const;
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<TraceRecord> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Index of the first position where two traces differ, or -1 if one is a
/// prefix of the other and they agree on the overlap (compare sizes then).
std::ptrdiff_t first_divergence(const std::vector<TraceRecord>& a,
                                const std::vector<TraceRecord>& b);

/// Human-readable one-line description of a record, for test failure output.
std::string describe(const TraceRecord& rec);

}  // namespace umiddle::sim
