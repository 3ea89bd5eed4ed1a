// Small string utilities shared by the protocol codecs and parsers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace umiddle::strings {

/// Split on a single-character delimiter; empty fields are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on a multi-character separator (e.g. "\r\n"); empty fields are kept.
std::vector<std::string> split(std::string_view s, std::string_view sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

std::string to_lower(std::string_view s);
std::string to_upper(std::string_view s);

/// ASCII case-insensitive equality (protocol header names).
bool iequals(std::string_view a, std::string_view b);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Join the items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Parse a non-negative decimal integer; returns false on any non-digit input
/// and on a value above UINT64_MAX.
bool parse_u64(std::string_view s, std::uint64_t& out);

}  // namespace umiddle::strings
