#include "xml/xml.hpp"

#include <array>
#include <cstdint>
#include <cstring>

namespace umiddle::xml {

std::string_view Element::attr(std::string_view name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return v;
  }
  return {};
}

bool Element::has_attr(std::string_view name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return true;
  }
  return false;
}

Element& Element::set_attr(std::string name, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == name) {
      v = std::move(value);
      return *this;
    }
  }
  attrs_.emplace_back(std::move(name), std::move(value));
  return *this;
}

Element& Element::add_child(std::string name) {
  children_.emplace_back(std::move(name));
  return children_.back();
}

Element& Element::add_child(Element child) {
  children_.push_back(std::move(child));
  return children_.back();
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c.name() == name || c.local_name() == name) return &c;
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (c.name() == name || c.local_name() == name) out.push_back(&c);
  }
  return out;
}

std::string_view Element::child_text(std::string_view name) const {
  const Element* c = child(name);
  return c != nullptr ? std::string_view(c->text()) : std::string_view{};
}

const Element* Element::find(std::string_view name) const {
  if (name_ == name || local_name() == name) return this;
  for (const auto& c : children_) {
    if (const Element* hit = c.find(name); hit != nullptr) return hit;
  }
  return nullptr;
}

std::string_view Element::local_name() const {
  std::size_t colon = name_.find(':');
  return colon == std::string::npos ? std::string_view(name_)
                                    : std::string_view(name_).substr(colon + 1);
}

namespace {
constexpr std::string_view kDeclaration = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
}  // namespace

std::string Element::to_string(bool declaration) const {
  // Escapes lengthen the output past this; a photo's base64 text has none,
  // so its envelope is written into one buffer that never grows.
  Writer out((declaration ? kDeclaration.size() : 0) + unescaped_size());
  if (declaration) out.declaration();
  write(out);
  return std::move(out).take();
}

std::size_t Element::unescaped_size() const {
  std::size_t n = 1 + name_.size();                                // <name
  for (const auto& [k, v] : attrs_) n += 4 + k.size() + v.size();  //  k="v"
  if (text_.empty() && children_.empty()) return n + 2;            // />
  n += 1 + text_.size() + 3 + name_.size();                        // >text</name>
  for (const auto& c : children_) n += c.unescaped_size();
  return n;
}

void Element::write(Writer& out) const {
  out.start(name_);
  for (const auto& [k, v] : attrs_) out.attr(k, v);
  out.text(text_);
  for (const auto& c : children_) c.write(out);
  out.end(name_);
}

Writer& Writer::declaration() {
  out_ += kDeclaration;
  return *this;
}

void Writer::close_start_tag() {
  if (!tag_open_) return;
  out_ += '>';
  tag_open_ = false;
}

Writer& Writer::start(std::string_view name) {
  close_start_tag();
  out_ += '<';
  out_ += name;
  tag_open_ = true;
  return *this;
}

Writer& Writer::attr(std::string_view name, std::string_view value) { return attr(name, {value}); }

Writer& Writer::attr(std::string_view name, std::initializer_list<std::string_view> parts) {
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
  for (std::string_view part : parts) escape_to(out_, part);
  out_ += '"';
  return *this;
}

Writer& Writer::text(std::string_view text) {
  if (text.empty()) return *this;
  close_start_tag();
  escape_to(out_, text);
  return *this;
}

Writer& Writer::end(std::string_view name) {
  if (tag_open_) {
    out_ += "/>";
    tag_open_ = false;
    return *this;
  }
  out_ += "</";
  out_ += name;
  out_ += '>';
  return *this;
}

namespace {

/// Escapable-character table, indexed by unsigned char: one load per input
/// byte, where find_first_of("&<>\"'") scans the 5-character set per byte.
constexpr std::array<bool, 256> kEscapable = [] {
  std::array<bool, 256> table{};
  for (char c : std::string_view("&<>\"'")) table[static_cast<unsigned char>(c)] = true;
  return table;
}();

/// Sixteen bytes as one GCC/Clang vector: plain C++ operators on it compile
/// to whatever SIMD the target has, so the scan has one implementation.
using Lanes = unsigned char __attribute__((vector_size(16)));

/// Index of the first escapable character of `s` at or after `from`, or npos.
/// 64 bytes per step while none of them is escapable. Three compares cover
/// the five characters: '"' itself, (c | 1) == '\'' for '&' (0x26) and '\''
/// (0x27), and (c | 2) == '>' for '<' (0x3C) and '>' (0x3E). The table then
/// finds the character inside the step that hit, or in the tail.
std::size_t find_escapable(std::string_view s, std::size_t from) {
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  std::size_t i = from;
  for (; i + 64 <= s.size(); i += 64) {
    Lanes hit{};
    for (std::size_t k = 0; k < 64; k += sizeof(Lanes)) {
      Lanes v{};
      std::memcpy(&v, p + i + k, sizeof v);
      hit |= reinterpret_cast<Lanes>((v == '"') | ((v | 1) == '\'') | ((v | 2) == '>'));
    }
    std::uint64_t words[2] = {};
    std::memcpy(words, &hit, sizeof words);
    if ((words[0] | words[1]) != 0) break;
  }
  for (; i < s.size(); ++i) {
    if (kEscapable[p[i]]) return i;
  }
  return std::string_view::npos;
}

}  // namespace

bool needs_escape(std::string_view s) { return find_escapable(s, 0) != std::string_view::npos; }

void escape_to(std::string& out, std::string_view s) {
  // One pass over `s`: each run of plain characters goes out in one append,
  // and only the escapable characters go through the switch.
  std::size_t run = 0;
  for (std::size_t i = find_escapable(s, 0); i != std::string_view::npos;
       i = find_escapable(s, i + 1)) {
    out.append(s.data() + run, i - run);
    switch (s[i]) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
    }
    run = i + 1;
  }
  out.append(s.data() + run, s.size() - run);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escape_to(out, s);
  return out;
}

Result<std::string_view> unescape_view(std::string_view s, std::string& scratch) {
  if (s.find('&') == std::string_view::npos) return s;
  std::string& out = scratch;
  out.clear();
  out.reserve(s.size());
  std::size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      std::size_t amp = s.find('&', i);
      out.append(s.substr(i, amp - i));
      i = amp;
      continue;
    }
    std::size_t semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      return make_error(Errc::parse_error, "unterminated entity reference");
    }
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      std::string_view num = ent.substr(1);
      int base = 10;
      if (!num.empty() && (num[0] == 'x' || num[0] == 'X')) {
        base = 16;
        num = num.substr(1);
      }
      if (num.empty()) return make_error(Errc::parse_error, "empty character reference");
      unsigned long code = 0;
      for (char c : num) {
        int digit = -1;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        if (digit < 0) return make_error(Errc::parse_error, "bad character reference");
        code = code * static_cast<unsigned long>(base) + static_cast<unsigned long>(digit);
        if (code > 0x10FFFF) return make_error(Errc::parse_error, "character reference out of range");
      }
      // UTF-8 encode.
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      return make_error(Errc::parse_error, "unknown entity: &" + std::string(ent) + ";");
    }
    i = semi + 1;
  }
  return std::string_view(out);
}

Result<std::string> unescape(std::string_view s) {
  std::string scratch;
  auto view = unescape_view(s, scratch);
  if (!view.ok()) return view.error();
  return std::string(view.value());
}

}  // namespace umiddle::xml
