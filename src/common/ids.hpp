// Strong identifier types used across the uMiddle core and substrates.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace umiddle {

/// Strongly typed numeric id; Tag makes distinct id spaces incompatible.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::uint64_t v) : value_(v) {}

  constexpr std::uint64_t value() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }

  friend constexpr auto operator<=>(const Id&, const Id&) = default;

  std::string to_string() const { return std::to_string(value_); }

 private:
  std::uint64_t value_ = 0;
};

/// Monotonic generator for a given id space.
template <typename IdT>
class IdGenerator {
 public:
  IdT next() { return IdT(++last_); }

 private:
  std::uint64_t last_ = 0;
};

struct NodeTag {};
struct TranslatorTag {};
struct PathTag {};
struct StreamTag {};

/// Identifies a uMiddle runtime node.
using NodeId = Id<NodeTag>;
/// Identifies a translator instance in the intermediary semantic space.
using TranslatorId = Id<TranslatorTag>;
/// Identifies an established message path.
using PathId = Id<PathTag>;
/// Identifies a netsim stream connection.
using StreamId = Id<StreamTag>;

}  // namespace umiddle

namespace std {
template <typename Tag>
struct hash<umiddle::Id<Tag>> {
  size_t operator()(umiddle::Id<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
