// Model test of the native registration rules (core/registrations.hpp), with
// no simulated network. Owners O1, O2 and O3 register keys 1, 2 and 3 with
// value A or B, as a broker connection, a GENA subscriber or a registry's
// calling host would. A plain reference model holds the rules:
//   - add is idempotent for the key's owner, whose value replaces the old one,
//     and is refused while another owner holds the key;
//   - remove succeeds for the owner only;
//   - drop_owner removes every entry of one owner and returns them in key
//     order;
//   - iteration is in key order.
// After every step the table's answer and its entries must equal the model's.
//
// Each hand-written Row scripts the ops for one rule and pins the answers and
// the table it ends with. The explorer runs every sequence of the op alphabet,
// breadth first with duplicate states merged, until no new state appears; a
// mismatch prints as a ready-to-paste Row.
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/registrations.hpp"

namespace umiddle::core {
namespace {

using Table = Registrations<int, int, char>;

enum class Kind : std::uint8_t { Add, Remove, DropOwner };

struct Op {
  Kind kind;
  int owner;
  int key = 0;
  char value = 0;
};

constexpr int O1 = 1, O2 = 2, O3 = 3;
constexpr char A = 'A', B = 'B';

Op add(int owner, int key, char value) { return {Kind::Add, owner, key, value}; }
Op remove(int owner, int key) { return {Kind::Remove, owner, key}; }
Op drop_owner(int owner) { return {Kind::DropOwner, owner}; }

/// Prints as the helper call that builds it, so a script pastes as a Row.
std::ostream& operator<<(std::ostream& os, const Op& op) {
  switch (op.kind) {
    case Kind::Add:
      return os << "add(O" << op.owner << ", " << op.key << ", " << op.value << ")";
    case Kind::Remove: return os << "remove(O" << op.owner << ", " << op.key << ")";
    case Kind::DropOwner: return os << "drop_owner(O" << op.owner << ")";
  }
  return os;
}

/// The table and the reference model side by side.
class Model {
 public:
  void run(const Op& op) {
    const std::string got = apply(table_, op);
    const std::string want = expect(op);
    if (got != want && fault_.empty()) {
      fault_ = "answered " + got + " where the rules say " + want;
    }
    answers_.push_back(got);
    if (fault_.empty() && entries(table_) != render(model_)) {
      fault_ = "table " + entries(table_) + " where the rules say " + render(model_);
    }
  }

  /// Empty while the table has agreed with the model at every step.
  const std::string& broken() const { return fault_; }

  /// The answers so far and the table's entries, as a Row pins them.
  std::string outcome() const {
    std::string out = "answers [";
    for (std::size_t i = 0; i < answers_.size(); ++i) out += (i == 0 ? "" : " ") + answers_[i];
    return out + "] table " + entries(table_);
  }

  /// The state, for merging duplicates in the explorer: the table alone.
  std::string fingerprint() const { return entries(table_); }

 private:
  using Reference = std::map<int, std::pair<int, char>>;

  static std::string apply(Table& table, const Op& op) {
    switch (op.kind) {
      case Kind::Add: return table.add(op.key, op.owner, op.value) ? "+" : "-";
      case Kind::Remove: return table.remove(op.key, op.owner) ? "+" : "-";
      case Kind::DropOwner: {
        std::string out = "{";
        for (const auto& [key, value] : table.drop_owner(op.owner)) {
          out += (out.size() == 1 ? "" : " ") + std::to_string(key) + ":" + value;
        }
        return out + "}";
      }
    }
    return {};
  }

  /// The rules, written out plainly on a std::map.
  std::string expect(const Op& op) {
    auto it = model_.find(op.key);
    switch (op.kind) {
      case Kind::Add:
        if (it == model_.end()) {
          model_[op.key] = {op.owner, op.value};
          return "+";
        }
        if (it->second.first != op.owner) return "-";
        it->second.second = op.value;
        return "+";
      case Kind::Remove:
        if (it == model_.end() || it->second.first != op.owner) return "-";
        model_.erase(it);
        return "+";
      case Kind::DropOwner: {
        std::string out = "{";
        Reference kept;
        for (const auto& [key, entry] : model_) {
          if (entry.first != op.owner) {
            kept.emplace(key, entry);
            continue;
          }
          out += (out.size() == 1 ? "" : " ") + std::to_string(key) + ":" + entry.second;
        }
        model_ = std::move(kept);
        return out + "}";
      }
    }
    return {};
  }

  /// Entries as `{key:Oowner/value ...}`, by iteration, checked against the
  /// size and a find of every key.
  static std::string entries(const Table& table) {
    std::string out = "{";
    std::size_t walked = 0;
    int last = 0;
    for (const auto& [key, entry] : table) {
      if (key <= last) return "{out of key order}";
      last = key;
      const auto* found = table.find(key);
      if (found == nullptr || found->owner != entry.owner || found->value != entry.value) {
        return "{find disagrees with iteration}";
      }
      out += std::string(walked++ == 0 ? "" : " ") + std::to_string(key) + ":O" +
             std::to_string(entry.owner) + "/" + entry.value;
    }
    if (walked != table.size()) return "{size disagrees}";
    return out + "}";
  }

  static std::string render(const Reference& model) {
    std::string out = "{";
    for (const auto& [key, entry] : model) {
      out += std::string(out.size() == 1 ? "" : " ") + std::to_string(key) + ":O" +
             std::to_string(entry.first) + "/" + entry.second;
    }
    return out + "}";
  }

  Table table_;
  Reference model_;
  std::vector<std::string> answers_;
  std::string fault_;
};

// --- hand-written rows ---------------------------------------------------------------

struct Row {
  const char* name;
  std::vector<Op> script;
  const char* outcome;
};

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {"a_add_is_idempotent_for_the_owner_and_takes_its_value",
       {add(O1, 1, A), add(O1, 1, A), add(O1, 1, B)},
       "answers [+ + +] table {1:O1/B}"},
      {"b_add_is_refused_while_another_owner_holds_the_key",
       {add(O1, 1, A), add(O2, 1, B), add(O3, 1, A)},
       "answers [+ - -] table {1:O1/A}"},
      {"c_remove_succeeds_for_the_owner_only",
       {add(O1, 1, A), add(O2, 2, B), remove(O2, 1), remove(O1, 2), remove(O1, 1), remove(O1, 1)},
       "answers [+ + - - + -] table {2:O2/B}"},
      {"d_drop_owner_removes_all_of_its_entries_in_key_order",
       {add(O1, 3, A), add(O2, 2, A), add(O1, 1, B), add(O1, 2, B), drop_owner(O1),
        drop_owner(O1)},
       "answers [+ + + - {1:B 3:A} {}] table {2:O2/A}"},
      {"e_a_freed_key_may_be_taken_by_another_owner",
       {add(O1, 1, A), remove(O1, 1), add(O2, 1, B), drop_owner(O2), add(O3, 1, A)},
       "answers [+ + + {1:B} +] table {1:O3/A}"},
      {"f_iteration_is_in_key_order",
       {add(O3, 3, A), add(O1, 1, B), add(O2, 2, A)},
       "answers [+ + +] table {1:O1/B 2:O2/A 3:O3/A}"},
  };
  return table;
}

// Keeps ctest names stable: without it gtest prints the row's raw bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class RegistrationsModel : public ::testing::TestWithParam<Row> {};

TEST_P(RegistrationsModel, TheTableEndsWhereTheRowSays) {
  const Row& row = GetParam();
  Model model;
  for (std::size_t i = 0; i < row.script.size(); ++i) {
    model.run(row.script[i]);
    ASSERT_EQ(model.broken(), "") << "after step " << i << " (" << row.script[i] << ")";
  }
  EXPECT_EQ(model.outcome(), row.outcome);
}

INSTANTIATE_TEST_SUITE_P(Rows, RegistrationsModel, ::testing::ValuesIn(rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

// --- bounded exhaustive exploration -------------------------------------------------

std::vector<Op> alphabet() {
  std::vector<Op> ops;
  for (int owner : {O1, O2, O3}) {
    for (int key : {1, 2, 3}) {
      for (char value : {A, B}) ops.push_back(add(owner, key, value));
      ops.push_back(remove(owner, key));
    }
    ops.push_back(drop_owner(owner));
  }
  return ops;
}

struct Explored {
  std::size_t parent;
  Op op;
};

std::vector<Op> path_to(const std::vector<Explored>& states, std::size_t i) {
  std::vector<Op> path;
  for (; i != 0; i = states[i].parent) path.push_back(states[i].op);
  return {path.rbegin(), path.rend()};
}

/// `script` and where it ended, as a Row that replays it.
std::string as_row(const std::vector<Op>& script, const Model& end) {
  std::ostringstream row;
  row << "{\"explored_" << script.size() << "_steps\",\n {";
  for (std::size_t i = 0; i < script.size(); ++i) row << (i == 0 ? "" : ", ") << script[i];
  row << "},\n \"" << end.outcome() << "\"},";
  return row.str();
}

TEST(RegistrationsExplorer, EverySequenceAgreesWithTheRules) {
  const std::vector<Op> ops = alphabet();
  // Breadth first; a level keeps its states whole, so nothing is replayed.
  std::vector<Explored> states{{0, drop_owner(O1)}};  // the root; its op is unused
  std::vector<std::pair<std::size_t, Model>> level;
  level.emplace_back(0, Model());
  std::unordered_set<std::string> seen{level.front().second.fingerprint()};
  int depth = 0;
  while (!level.empty()) {
    ++depth;
    std::vector<std::pair<std::size_t, Model>> deeper;
    for (const auto& [index, here] : level) {
      for (const Op& op : ops) {
        Model next = here;
        next.run(op);
        if (const std::string why = next.broken(); !why.empty()) {
          std::vector<Op> path = path_to(states, index);
          path.push_back(op);
          FAIL() << why << " after " << depth << " steps; as a row:\n" << as_row(path, next);
        }
        if (!seen.insert(next.fingerprint()).second) continue;
        states.push_back({index, op});
        deeper.emplace_back(states.size() - 1, std::move(next));
      }
    }
    level = std::move(deeper);
  }
  // Each of 3 keys is free or held by one of 3 owners with one of 2 values.
  EXPECT_EQ(states.size(), 7u * 7u * 7u);
  std::cout << "explored " << states.size() << " states to depth " << depth - 1 << "\n";
}

}  // namespace
}  // namespace umiddle::core
