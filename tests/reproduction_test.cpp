// The reproduction gate (EXPERIMENTS.md): every paper scenario of
// bench/scenarios.hpp runs at full size and must match its committed golden,
// tests/golden/<scenario>.json, row for row: exact virtual-time results, the
// trace digest and the fate counters of every world. The goldens have one
// writer, `repro --update-goldens`, so a deliberate re-baseline is a JSON
// diff. The paper's shape claims are assertions of their own: a re-baseline
// must still keep the paper's shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "scenarios.hpp"

namespace umiddle {
namespace repro {
// Failure messages name a scenario parameter by its name.
void PrintTo(const Scenario& scenario, std::ostream* os) { *os << scenario.name; }
}  // namespace repro

namespace {

using repro::Outcome;
using repro::World;

class GoldenTest : public ::testing::TestWithParam<repro::Scenario> {};

TEST_P(GoldenTest, MatchesGolden) {
  const Outcome outcome = GetParam().run();
  for (const std::string& mismatch :
       repro::golden_diff(GetParam().name, repro::rows(outcome), /*exhaustive=*/true)) {
    ADD_FAILURE() << mismatch;
  }
  // Every simulated world exports telemetry (counters, gauges, histograms).
  for (const World& w : outcome.worlds) {
    if (w.digest) {
      EXPECT_GT(w.instruments, 0u) << GetParam().name << "/" << w.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenTest, ::testing::ValuesIn(repro::scenarios()),
                         [](const ::testing::TestParamInfo<repro::Scenario>& info) {
                           return std::string(info.param.name);
                         });

// --- the paper's shape claims ---------------------------------------------------------

// Fig. 11: streaming MediaBroker loses only moderately to raw TCP, and the
// synchronous RMI legs are the bottleneck — on the hub and on the switch.
TEST(ShapeTest, Fig11TcpOverMbOverRmi) {
  const Outcome o = repro::scenario("fig11").run();
  for (const std::string medium : {"_half_duplex", "_full_duplex"}) {
    const std::int64_t tcp = o.world("tcp" + medium).at("bytes");
    const std::int64_t mb = o.world("mb_echo" + medium).at("bytes");
    const std::int64_t rmi = std::max(o.world("rmi" + medium).at("bytes"),
                                      o.world("rmi_mb" + medium).at("bytes"));
    EXPECT_GT(tcp, mb) << medium;
    EXPECT_GT(mb, rmi) << medium;
    EXPECT_GT(rmi, 0) << medium;
  }
}

// Fig. 10: the clock, with 14 ports and two extra hierarchy entities, is the
// outlier — its mapping takes more than twice any other device's.
TEST(ShapeTest, Fig10ClockIsTheOutlier) {
  const Outcome o = repro::scenario("fig10").run();
  const std::int64_t clock = o.world("upnp_clock").at("mapping_ns");
  for (const World& w : o.worlds) {
    if (w.name == "upnp_clock") continue;
    EXPECT_GT(w.at("mapping_ns"), 0) << w.name;
    EXPECT_GT(clock, 2 * w.at("mapping_ns")) << w.name;
  }
}

// Ablation A: with one instantiation cost per translator, standing up the
// direct model's n(n-1) translators takes exactly (n-1)× the mediated n.
TEST(ShapeTest, AblationADirectIsNMinusOneTimesMediated) {
  const Outcome o = repro::scenario("ablation_a").run();
  for (std::int64_t n : {2, 4, 8, 16, 32, 64}) {
    const std::int64_t mediated = o.world("mediated_n" + std::to_string(n)).at("standup_ns");
    const std::int64_t direct = o.world("direct_n" + std::to_string(n)).at("standup_ns");
    EXPECT_GT(mediated, 0) << "n=" << n;
    EXPECT_EQ(direct, (n - 1) * mediated) << "n=" << n;
  }
}

// §5.2: the infrastructure contributes little — uMiddle's own translation is
// about 6% of a UPnP light action (paper: ~10 of 160 ms).
TEST(ShapeTest, Sec52UmiddleShareOfLightActionIsAboutSixPercent) {
  const World light = repro::scenario("sec52").run().world("upnp_light");
  const std::int64_t total = light.at("total_ns");
  const std::int64_t umiddle = total - light.at("native_ns");
  ASSERT_GT(total, 0);
  EXPECT_GT(umiddle * 100, total * 5);
  EXPECT_LT(umiddle * 100, total * 7);
}

// Ablation B: type-name matching pairs only same-type devices, which never
// carry media to each other; port-type matching finds usable pairs.
TEST(ShapeTest, AblationBCoarseFindsNoUsablePairFineDoes) {
  const Outcome o = repro::scenario("ablation_b").run();
  ASSERT_FALSE(o.worlds.empty());
  for (const World& w : o.worlds) {
    EXPECT_EQ(w.at("coarse_usable"), 0) << w.name;
    EXPECT_GT(w.at("fine_usable"), 0) << w.name;
  }
}

// The delivery-contract table (DESIGN.md §11): every shedding policy, without
// and with a deadline, is a row of the overload scenario.
TEST(ReproductionTest, OverloadHasEveryPolicyRow) {
  const Outcome o = repro::scenario("overload").run();
  ASSERT_EQ(o.worlds.size(), 8u);
  for (const char* mode : {"shed_", "deadline_"}) {
    for (const char* policy : {"drop_newest", "drop_oldest", "latest_only", "block"}) {
      const World& w = o.world(std::string(mode) + policy);
      EXPECT_EQ(w.at("offered"), 2000) << mode << policy;
      EXPECT_GT(w.instruments, 0u) << mode << policy;
    }
  }
}

}  // namespace
}  // namespace umiddle
