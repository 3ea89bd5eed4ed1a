#include "xml/parser.hpp"

#include "common/strings.hpp"

namespace umiddle::xml {
namespace {

/// Shrink `text` to strings::trim(text) without copying it out.
void trim_in_place(std::string& text) {
  std::string_view kept = strings::trim(text);
  const auto lead = static_cast<std::size_t>(kept.data() - text.data());
  text.resize(lead + kept.size());
  text.erase(0, lead);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Element> parse_document() {
    skip_prolog();
    Element root;
    if (auto r = parse_element(root); !r.ok()) return r.error();
    skip_misc();
    if (pos_ != text_.size()) {
      return fail("trailing content after document element");
    }
    return root;
  }

 private:
  Error fail(std::string message) const {
    return make_error(Errc::parse_error,
                      "xml: " + std::move(message) + " at offset " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool looking_at(std::string_view s) const {
    return text_.size() - pos_ >= s.size() && text_.substr(pos_, s.size()) == s;
  }

  void skip_ws() {
    while (!eof() && strings::is_space(peek())) ++pos_;
  }

  void skip_prolog() {
    skip_ws();
    if (looking_at("<?xml")) {
      std::size_t end = text_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? text_.size() : end + 2;
    }
    skip_misc();
  }

  // Whitespace and comments between markup.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (looking_at("<!--")) {
        std::size_t end = text_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? text_.size() : end + 3;
        continue;
      }
      return;
    }
  }

  static bool name_start(char c) {
    return strings::is_alpha(c) || c == '_' || c == ':';
  }
  static bool name_char(char c) {
    return strings::is_alnum(c) || c == '_' || c == ':' || c == '-' || c == '.';
  }

  // Returns a view into text_: end-tag names are only ever compared, so they
  // never need to own their characters.
  Result<std::string_view> parse_name() {
    if (eof() || !name_start(peek())) return fail("expected name");
    std::size_t start = pos_;
    while (!eof() && name_char(peek())) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  Result<void> parse_attributes(Element& el) {
    while (true) {
      skip_ws();
      if (eof()) return fail("unterminated start tag");
      if (peek() == '>' || peek() == '/' || peek() == '?') return ok_result();
      auto name = parse_name();
      if (!name.ok()) return name.error();
      skip_ws();
      if (eof() || peek() != '=') return fail("expected '=' after attribute name");
      ++pos_;
      skip_ws();
      if (eof() || (peek() != '"' && peek() != '\'')) return fail("expected quoted value");
      char quote = peek();
      ++pos_;
      std::size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) return fail("unterminated attribute value");
      auto value = unescape_view(text_.substr(pos_, end - pos_), scratch_);
      if (!value.ok()) return value.error();
      el.set_attr(std::string(name.value()), std::string(value.value()));
      pos_ = end + 1;
    }
  }

  Result<void> parse_element(Element& out) {
    if (eof() || peek() != '<') return fail("expected '<'");
    ++pos_;
    auto name = parse_name();
    if (!name.ok()) return name.error();
    out.set_name(std::string(name.value()));
    if (auto r = parse_attributes(out); !r.ok()) return r.error();
    if (looking_at("/>")) {
      pos_ += 2;
      return ok_result();
    }
    if (eof() || peek() != '>') return fail("expected '>'");
    ++pos_;
    return parse_content(out);
  }

  Result<void> parse_content(Element& el) {
    std::string text;
    while (true) {
      if (eof()) return fail("unterminated element <" + el.name() + ">");
      if (peek() == '<') {
        if (looking_at("</")) {
          pos_ += 2;
          auto name = parse_name();
          if (!name.ok()) return name.error();
          if (name.value() != el.name()) {
            return fail("mismatched end tag </" + std::string(name.value()) + "> for <" +
                        el.name() + ">");
          }
          skip_ws();
          if (eof() || peek() != '>') return fail("expected '>' in end tag");
          ++pos_;
          trim_in_place(text);
          el.set_text(std::move(text));
          return ok_result();
        }
        if (looking_at("<!--")) {
          std::size_t end = text_.find("-->", pos_ + 4);
          if (end == std::string_view::npos) return fail("unterminated comment");
          pos_ = end + 3;
          continue;
        }
        if (looking_at("<![CDATA[")) {
          std::size_t end = text_.find("]]>", pos_ + 9);
          if (end == std::string_view::npos) return fail("unterminated CDATA");
          text += text_.substr(pos_ + 9, end - pos_ - 9);
          pos_ = end + 3;
          continue;
        }
        if (looking_at("<!") || looking_at("<?")) {
          return fail("unsupported markup");
        }
        Element child;
        if (auto r = parse_element(child); !r.ok()) return r.error();
        el.add_child(std::move(child));
        continue;
      }
      std::size_t next = text_.find('<', pos_);
      if (next == std::string_view::npos) next = text_.size();
      auto chunk = unescape_view(text_.substr(pos_, next - pos_), scratch_);
      if (!chunk.ok()) return chunk.error();
      text += chunk.value();
      pos_ = next;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string scratch_;  ///< reused by unescape_view for attribute/text decoding
};

}  // namespace

Result<Element> parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace umiddle::xml
