// Every example program, run as a user runs it, must print exactly its
// committed output: stdout, and for camera_to_tv also the Chrome trace and
// the metrics snapshot it writes. The goldens live in tests/golden/examples/
// and go through the golden comparison of the paper scenarios
// (bench/scenarios.hpp) line by line, so a drift fails with a line diff. A
// JSON file breaks after every comma outside a string, so a one-line document
// still diffs value by value.
//
//   example_golden_test                   check every example
//   example_golden_test --update-goldens  rewrite tests/golden/examples/ from
//                                         the examples as built
//
// The goldens have no other writer: a deliberate re-baseline is that command
// and the diff it leaves, as with `repro --update-goldens`.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenarios.hpp"

namespace umiddle {
namespace {

struct Example {
  const char* name;  ///< the binary, and its golden stem under examples/
  const char* args;
  /// JSON files it writes into its working directory.
  std::vector<const char*> files;
};

const std::vector<Example> kExamples = {
    {"quickstart", "", {}},
    {"smart_classroom", "", {}},
    {"pads_demo", "", {}},
    {"g2ui_atlas", "", {}},
    {"usdl_lint", "--builtin", {}},
    {"camera_to_tv",
     "--trace-out=camera_to_tv.trace.json --metrics-out=camera_to_tv.metrics.json",
     {"camera_to_tv.trace.json", "camera_to_tv.metrics.json"}},
};

/// `json` with a line break after every comma outside a string.
std::string json_lines(const std::string& json) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (in_string && json[i] == '\\' && i + 1 < json.size()) {
      out += json[++i];
    } else if (json[i] == '"') {
      in_string = !in_string;
    } else if (json[i] == ',' && !in_string) {
      out += '\n';
    }
  }
  return out;
}

/// What one run of an example wrote, as (golden file, text) pairs with
/// stdout first, or why it could not be run.
struct Outputs {
  std::string error;
  std::vector<std::pair<std::string, std::string>> outputs;
};

Outputs run(const Example& example) {
  // Each example has its own working directory, so ctest -j runs never share
  // an output file, and the stdout naming a file is the same on every machine.
  const std::filesystem::path dir =
      std::filesystem::path(UMIDDLE_EXAMPLE_RUN_DIR) / example.name;
  std::filesystem::create_directories(dir);
  for (const char* file : example.files) std::filesystem::remove(dir / file);
  const std::string command = "cd '" + dir.string() + "' && '" + UMIDDLE_EXAMPLES_DIR + "/" +
                              example.name + "' " + example.args;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {"cannot run: " + command, {}};
  std::string out;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) out.append(buffer, n);
  if (const int status = pclose(pipe); status != 0) {
    return {command + " exited with status " + std::to_string(status), {}};
  }
  Outputs r{{}, {{std::string("examples/") + example.name + ".txt", std::move(out)}}};
  for (const char* file : example.files) {
    std::ifstream in(dir / file);
    if (!in) return {"no output file " + (dir / file).string(), {}};
    std::ostringstream text;
    text << in.rdbuf();
    r.outputs.emplace_back(std::string("examples/") + file, json_lines(text.str()));
  }
  return r;
}

// Failure messages name an example by its name.
void PrintTo(const Example& example, std::ostream* os) { *os << example.name; }

class ExampleGoldenTest : public ::testing::TestWithParam<Example> {};

TEST_P(ExampleGoldenTest, OutputMatchesGolden) {
  const Outputs r = run(GetParam());
  ASSERT_EQ(r.error, "");
  for (const auto& [file, text] : r.outputs) {
    for (const std::string& mismatch : repro::golden_text_diff(file, text)) {
      ADD_FAILURE() << mismatch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, ExampleGoldenTest, ::testing::ValuesIn(kExamples),
                         [](const ::testing::TestParamInfo<Example>& info) {
                           return std::string(info.param.name);
                         });

int update_goldens() {
  for (const Example& example : kExamples) {
    const Outputs r = run(example);
    if (!r.error.empty()) {
      std::fprintf(stderr, "%s\n", r.error.c_str());
      return 1;
    }
    for (const auto& [file, text] : r.outputs) {
      if (!repro::write_golden_text(file, text)) {
        std::fprintf(stderr, "cannot write the golden %s\n", file.c_str());
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace umiddle

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--update-goldens") == 0) {
    return umiddle::update_goldens();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
