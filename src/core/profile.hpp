// TranslatorProfile: the directory-visible description of a translator.
#pragma once

#include <string>

#include "common/ids.hpp"
#include "core/shape.hpp"

namespace umiddle::core {

/// What the directory stores and advertises for every mapped translator
/// (paper Fig. 6: lookup() returns "profiles of translators").
struct TranslatorProfile {
  TranslatorId id;
  /// Human-readable name, e.g. "BIP Digital Camera".
  std::string name;
  /// Native platform the device lives on, e.g. "upnp", "bluetooth", "umiddle"
  /// (the latter for native uMiddle services, paper §4.1).
  std::string platform;
  /// Native device type / match key, e.g. a UPnP device URN or BT service UUID.
  std::string device_type;
  /// Runtime node hosting the translator.
  NodeId node;
  Shape shape;

  /// Parse the <translator> element of an announce (written by announce_text).
  static Result<TranslatorProfile> from_xml(const xml::Element& el);

  bool operator==(const TranslatorProfile&) const = default;
};

/// Reference to one port of one translator — the address messages flow between.
struct PortRef {
  TranslatorId translator;
  std::string port;

  friend bool operator==(const PortRef& a, const PortRef& b) {
    return a.translator == b.translator && a.port == b.port;
  }
  friend bool operator<(const PortRef& a, const PortRef& b) {
    return a.translator != b.translator ? a.translator < b.translator : a.port < b.port;
  }
  std::string to_string() const { return translator.to_string() + ":" + port; }
};

/// Full query evaluation: shape template plus platform / name filters.
bool matches(const Query& query, const TranslatorProfile& profile);

}  // namespace umiddle::core
