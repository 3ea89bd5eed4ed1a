// Message conservation over exported state (DESIGN.md §11, the fate table):
// every offered message was delivered, or left the transport through exactly
// one fate. Shared by the whole-world suites.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/transport.hpp"
#include "netsim/network.hpp"

namespace umiddle {

/// Checks offered = delivered + Σ fate counters on `net`'s metrics.
///
/// `offered` counts each (message, bound destination) pair an emit handed to
/// the transport, refused Block emits included; `delivered` counts the ones
/// that reached a destination translator. Two ledger prefixes have an
/// uncertain fate, and loosen the equality into bounds:
///   - delivery.unacked_dropped: a restarted receiver made the sender drop its
///     sent-but-unacked prefix, which may have been delivered before the
///     crash, so a message can be counted twice;
///   - recovery.giveup_unacked: the sent-but-unacked prefix of a link given
///     up is no fate, so a message lost with it is counted nowhere.
/// So: delivered + fates − unacked_dropped ≤ offered ≤ delivered + fates +
/// giveup_unacked, which is the equality when both are zero. Snapshot reads
/// only: nothing is registered, so the check never perturbs the telemetry.
inline void expect_conserved(net::Network& net, std::uint64_t offered, std::uint64_t delivered) {
  const obs::Snapshot snap = net.metrics().snapshot();
  auto value = [&snap](std::string_view name) -> std::uint64_t {
    const obs::SnapshotEntry* e = snap.find(name);
    return e == nullptr ? 0 : e->count;
  };
  std::uint64_t fates = 0;
  std::string detail;
  for (std::size_t f = 0; f < core::kFateCount; ++f) {
    const std::string_view name = core::fate_counter(static_cast<core::Fate>(f));
    const std::uint64_t n = value(name);
    fates += n;
    if (n != 0) {
      detail += ' ';
      detail += name;
      detail += '=';
      detail += std::to_string(n);
    }
  }
  const std::uint64_t unacked = value(core::fate_counter(core::Fate::unacked_dropped));
  const std::uint64_t abandoned = value("recovery.giveup_unacked");
  EXPECT_LE(delivered + fates - unacked, offered)
      << "delivered " << delivered << " + fates:" << detail << " exceed offered " << offered;
  EXPECT_GE(delivered + fates + abandoned, offered)
      << "offered " << offered << " but delivered " << delivered << " + fates:" << detail
      << " + giveup_unacked " << abandoned << " fall short";
}

}  // namespace umiddle
