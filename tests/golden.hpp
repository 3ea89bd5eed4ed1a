// Same-seed trace digests pinned as golden rows: a digest that drifts between
// builds or commits fails the test that produced it. The rows live in
// tests/golden/<suite>.json, in the format and through the comparison of the
// scenario goldens (bench/scenarios.hpp), keyed by the full test name. A
// deliberate re-baseline replaces each row with the live value its failure
// names.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "scenarios.hpp"

namespace umiddle {

inline void expect_golden_digest(std::string_view suite, std::uint64_t digest) {
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string key =
      std::string(test->test_suite_name()) + "." + test->name() + ".digest";
  for (const std::string& mismatch :
       repro::golden_diff(suite, {{key, std::to_string(digest)}}, /*exhaustive=*/false)) {
    ADD_FAILURE() << mismatch;
  }
}

}  // namespace umiddle
