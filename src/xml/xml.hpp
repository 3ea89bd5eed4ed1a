// Minimal XML document model + serializer.
//
// uMiddle is an XML-heavy system: USDL service descriptions, UPnP device/service
// descriptions, SOAP envelopes, GENA notifications, the VML documents that carry
// translated HID events, and directory advertisements are all XML. This model covers
// the subset those dialects need: elements, attributes, text content, comments
// (skipped), entity escaping, and an optional XML declaration. Namespaces are kept
// as literal prefixes (the 2006-era dialects use fixed prefixes).
//
// Writer is the one emitter of XML syntax. Element::to_string walks its tree
// through it, and the types that are only ever written (directory adverts,
// shapes, USDL documents) write themselves through it without building a tree.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace umiddle::xml {

/// Streaming XML writer: appends one document to a string it owns. Calls nest
/// like the document: start() opens an element, attr() adds to the start tag
/// still open, text() and a child's start() close that tag with '>', and end()
/// closes the element, as "/>" when it got no text and no child. Attribute
/// values and text are escaped; names are written as given.
class Writer {
 public:
  /// `reserve` sizes the buffer once, when the caller knows the length.
  explicit Writer(std::size_t reserve = 0) { out_.reserve(reserve); }

  /// The <?xml ...?> declaration; call it first.
  Writer& declaration();
  Writer& start(std::string_view name);
  Writer& attr(std::string_view name, std::string_view value);
  /// An attribute whose value is the concatenation of `parts`, written
  /// without building it (a MIME type's "type", "/" and "subtype").
  Writer& attr(std::string_view name, std::initializer_list<std::string_view> parts);
  /// Empty text writes nothing, so the element may still self-close.
  Writer& text(std::string_view text);
  /// Close the innermost open element, whose name is `name`.
  Writer& end(std::string_view name);

  /// The document written so far.
  std::string take() && { return std::move(out_); }

 private:
  /// Write the '>' of a start tag that is still open.
  void close_start_tag();

  std::string out_;
  bool tag_open_ = false;  ///< a start tag awaits its '>' or "/>"
};

/// An XML element: name, attributes, child elements, and concatenated text.
class Element {
 public:
  Element() = default;
  explicit Element(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Concatenated character data directly inside this element (trimmed).
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }
  /// Move the text out, leaving it empty (for callers that own the tree).
  std::string take_text() { return std::exchange(text_, {}); }

  const std::vector<std::pair<std::string, std::string>>& attributes() const { return attrs_; }
  /// Attribute value, or empty string when absent.
  std::string_view attr(std::string_view name) const;
  bool has_attr(std::string_view name) const;
  Element& set_attr(std::string name, std::string value);

  const std::vector<Element>& children() const { return children_; }
  std::vector<Element>& children() { return children_; }

  /// Append a child element and return a reference to it.
  Element& add_child(std::string name);
  Element& add_child(Element child);

  /// First direct child with the given name, or nullptr.
  const Element* child(std::string_view name) const;
  Element* child(std::string_view name) {
    return const_cast<Element*>(std::as_const(*this).child(name));
  }
  /// All direct children with the given name.
  std::vector<const Element*> children_named(std::string_view name) const;
  /// Text of the named direct child, or empty string.
  std::string_view child_text(std::string_view name) const;

  /// Depth-first search for the first descendant (or self) with the given name.
  const Element* find(std::string_view name) const;

  /// Local part of the element name (strips any "prefix:").
  std::string_view local_name() const;

  /// Serialize through a Writer; `declaration` prepends <?xml ...?>.
  std::string to_string(bool declaration = false) const;

  bool operator==(const Element&) const = default;

 private:
  void write(Writer& out) const;
  /// Length of the serialized tree when no character needs escaping: one
  /// pass over the tree, so to_string() reserves its buffer once.
  std::size_t unescaped_size() const;

  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<Element> children_;
};

/// True if `s` contains a character escape() would rewrite.
bool needs_escape(std::string_view s);
/// Append the escaped form of `s` to `out`. When nothing needs escaping this
/// is a single bulk append rather than a per-character copy.
void escape_to(std::string& out, std::string_view s);
/// Escape &<>"' for use in text or attribute values.
std::string escape(std::string_view s);
/// Resolve the five predefined entities plus decimal/hex character references.
/// Returns `s` itself — no allocation — when it contains no '&'; otherwise
/// decodes into `scratch` and returns a view of it. The view is invalidated
/// by the next call reusing the same scratch buffer.
[[nodiscard]] Result<std::string_view> unescape_view(std::string_view s, std::string& scratch);
/// Owning convenience wrapper over unescape_view().
[[nodiscard]] Result<std::string> unescape(std::string_view s);

}  // namespace umiddle::xml
