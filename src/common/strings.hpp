// Small string utilities shared by the protocol codecs and parsers.
//
// Protocol text is classified by one ASCII rule (DESIGN.md §7.3): the
// constexpr tests below give what <cctype> gives in the C locale, whatever
// locale an embedding program sets, so no wire parser's result depends on it
// (lint rule `ascii-text`).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace umiddle::strings {

/// ' ', '\t', '\n', '\v', '\f' or '\r'.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
constexpr bool is_alnum(char c) { return is_alpha(c) || is_digit(c); }
/// ASCII case mapping; every other byte maps to itself.
constexpr char lower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c; }
constexpr char upper(char c) { return c >= 'a' && c <= 'z' ? static_cast<char>(c - 32) : c; }

/// Split on a single-character delimiter; empty fields are kept.
std::vector<std::string> split(std::string_view s, char delim);

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
