// Unit + property tests for the XML engine (parser, model, writer, escaping).
#include <gtest/gtest.h>

#include "common/rand.hpp"
#include "xml/parser.hpp"
#include "xml/xml.hpp"

namespace umiddle::xml {
namespace {

TEST(XmlParseTest, SimpleElement) {
  auto r = parse("<root/>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name(), "root");
  EXPECT_TRUE(r.value().children().empty());
}

TEST(XmlParseTest, AttributesBothQuoteStyles) {
  auto r = parse(R"(<port name="image-out" mime='image/jpeg'/>)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().attr("name"), "image-out");
  EXPECT_EQ(r.value().attr("mime"), "image/jpeg");
  EXPECT_TRUE(r.value().has_attr("mime"));
  EXPECT_FALSE(r.value().has_attr("missing"));
  EXPECT_EQ(r.value().attr("missing"), "");
}

TEST(XmlParseTest, NestedChildrenAndText) {
  auto r = parse("<device><name>BIP Camera</name><ports><port/><port/></ports></device>");
  ASSERT_TRUE(r.ok());
  const Element& root = r.value();
  EXPECT_EQ(root.child_text("name"), "BIP Camera");
  ASSERT_NE(root.child("ports"), nullptr);
  EXPECT_EQ(root.child("ports")->children().size(), 2u);
  EXPECT_EQ(root.children_named("name").size(), 1u);
}

TEST(XmlParseTest, DeclarationAndComments) {
  auto r = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!-- a USDL document -->\n"
      "<usdl><!-- inner --><service/></usdl>\n"
      "<!-- trailing -->");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name(), "usdl");
  ASSERT_EQ(r.value().children().size(), 1u);
}

TEST(XmlParseTest, EntitiesAndCharRefs) {
  auto r = parse("<t a=\"&lt;x&gt;\">&amp;&quot;&apos;&#65;&#x42;</t>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().attr("a"), "<x>");
  EXPECT_EQ(r.value().text(), "&\"'AB");
}

TEST(XmlParseTest, Cdata) {
  auto r = parse("<script><![CDATA[if (a < b) & c]]></script>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text(), "if (a < b) & c");
}

TEST(XmlParseTest, NamespacePrefixes) {
  auto r = parse("<s:Envelope xmlns:s=\"http://soap\"><s:Body/></s:Envelope>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name(), "s:Envelope");
  EXPECT_EQ(r.value().local_name(), "Envelope");
  EXPECT_NE(r.value().child("Body"), nullptr);  // lookup by local name works
}

TEST(XmlParseTest, FindDescendant) {
  auto r = parse("<a><b><c><target x=\"1\"/></c></b></a>");
  ASSERT_TRUE(r.ok());
  const Element* hit = r.value().find("target");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->attr("x"), "1");
  EXPECT_EQ(r.value().find("absent"), nullptr);
}

TEST(XmlParseTest, RejectsMalformed) {
  EXPECT_FALSE(parse("").ok());
  EXPECT_FALSE(parse("<a>").ok());
  EXPECT_FALSE(parse("<a></b>").ok());
  EXPECT_FALSE(parse("<a b></a>").ok());
  EXPECT_FALSE(parse("<a b=unquoted/>").ok());
  EXPECT_FALSE(parse("<a/><b/>").ok());          // two roots
  EXPECT_FALSE(parse("<a>&unknown;</a>").ok());  // bad entity
  EXPECT_FALSE(parse("<a>&#xZZ;</a>").ok());     // bad char ref
  EXPECT_FALSE(parse("<!DOCTYPE html><a/>").ok());
}

TEST(XmlParseTest, TrailingGarbageRejected) {
  EXPECT_FALSE(parse("<a/>junk").ok());
}

TEST(XmlModelTest, BuildAndSerialize) {
  Element root("shape");
  root.set_attr("device", "printer");
  Element& in = root.add_child("digital-port");
  in.set_attr("direction", "input").set_attr("mime", "text/ps");
  root.add_child("physical-port").set_attr("tag", "visible/paper");
  std::string s = root.to_string();
  EXPECT_EQ(s,
            "<shape device=\"printer\">"
            "<digital-port direction=\"input\" mime=\"text/ps\"/>"
            "<physical-port tag=\"visible/paper\"/></shape>");
}

TEST(XmlModelTest, SetAttrOverwrites) {
  Element e("x");
  e.set_attr("k", "1");
  e.set_attr("k", "2");
  EXPECT_EQ(e.attr("k"), "2");
  EXPECT_EQ(e.attributes().size(), 1u);
}

TEST(XmlModelTest, EscapingInOutput) {
  Element e("t");
  e.set_attr("a", "<&>");
  e.set_text("a < b & c");
  std::string s = e.to_string();
  EXPECT_EQ(s, "<t a=\"&lt;&amp;&gt;\">a &lt; b &amp; c</t>");
}

TEST(XmlModelTest, DeclarationHeader) {
  Element e("root");
  std::string s = e.to_string(/*declaration=*/true);
  EXPECT_EQ(s, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><root/>");
}

// Text is written before the children, and no newline follows the
// declaration.
TEST(XmlModelTest, TextBeforeChildren) {
  Element e("a");
  e.set_attr("k", "v");
  e.set_text("t & u");
  e.add_child("b").add_child("c").set_text("x");
  EXPECT_EQ(e.to_string(), "<a k=\"v\">t &amp; u<b><c>x</c></b></a>");
  EXPECT_EQ(e.to_string(/*declaration=*/true),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a k=\"v\">t &amp; u<b><c>x</c></b></a>");
}

TEST(XmlWriterTest, SelfClosesWithoutTextOrChild) {
  Writer w;
  w.start("a").attr("k", "v").end("a");
  EXPECT_EQ(std::move(w).take(), "<a k=\"v\"/>");
  Writer empty_text;
  empty_text.start("a").text("").end("a");
  EXPECT_EQ(std::move(empty_text).take(), "<a/>");
}

TEST(XmlWriterTest, EscapesAttributesAndText) {
  Writer w;
  w.start("t").attr("a", "<&>\"'").text("a < b & c > 'd'").end("t");
  EXPECT_EQ(std::move(w).take(),
            "<t a=\"&lt;&amp;&gt;&quot;&apos;\">a &lt; b &amp; c &gt; &apos;d&apos;</t>");
}

TEST(XmlWriterTest, ClosesNestedElements) {
  Writer w;
  w.declaration().start("r").start("x").attr("n", "1").end("x").start("y").text("t");
  w.start("z").end("z").end("y").end("r");
  EXPECT_EQ(std::move(w).take(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r><x n=\"1\"/><y>t<z/></y></r>");
}

// The parser tolerates the whitespace of an indented document: it parses to
// the same tree as its compact form.
TEST(XmlParseTest, IndentedDocumentParsesLikeItsCompactForm) {
  auto indented = parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<shape device=\"printer\">\n"
      "  <digital-port direction=\"input\" mime=\"text/ps\"/>\n"
      "  <note>\n"
      "    paper &amp; toner\n"
      "    <physical-port tag=\"visible/paper\"/>\n"
      "  </note>\n"
      "</shape>\n");
  auto compact = parse(
      "<shape device=\"printer\"><digital-port direction=\"input\" mime=\"text/ps\"/>"
      "<note>paper &amp; toner<physical-port tag=\"visible/paper\"/></note></shape>");
  ASSERT_TRUE(indented.ok()) << indented.error().to_string();
  ASSERT_TRUE(compact.ok()) << compact.error().to_string();
  EXPECT_EQ(indented.value(), compact.value());
}

TEST(XmlEscapeTest, RoundTrip) {
  std::string original = "a<b&c>\"d'e";
  auto back = unescape(escape(original));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), original);
}

TEST(XmlEscapeTest, UnescapeErrors) {
  EXPECT_FALSE(unescape("&amp").ok());   // unterminated
  EXPECT_FALSE(unescape("&nope;").ok()); // unknown
  EXPECT_FALSE(unescape("&#;").ok());    // empty
}

TEST(XmlEscapeTest, Utf8CharRefs) {
  auto r = unescape("&#xE9;");  // é
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "\xC3\xA9");
  auto r2 = unescape("&#x1F600;");  // 4-byte emoji
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().size(), 4u);
}

// Property: serialize∘parse == id on randomly generated trees.
class XmlRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

namespace {

umiddle::xml::Element random_tree(umiddle::Rng& rng, int depth) {
  Element e("el_" + rng.ident(4));
  std::size_t attrs = rng.below(3);
  for (std::size_t i = 0; i < attrs; ++i) {
    e.set_attr("a_" + rng.ident(3), rng.chance(0.3) ? "<&\"'>" : rng.ident(6));
  }
  if (depth > 0 && rng.chance(0.7)) {
    std::size_t kids = 1 + rng.below(3);
    for (std::size_t i = 0; i < kids; ++i) e.add_child(random_tree(rng, depth - 1));
  } else if (rng.chance(0.5)) {
    e.set_text(rng.chance(0.3) ? "text & <markup>" : rng.ident(10));
  }
  return e;
}

bool equal_trees(const Element& a, const Element& b) {
  if (a.name() != b.name() || a.text() != b.text()) return false;
  if (a.attributes() != b.attributes()) return false;
  if (a.children().size() != b.children().size()) return false;
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    if (!equal_trees(a.children()[i], b.children()[i])) return false;
  }
  return true;
}

}  // namespace

TEST_P(XmlRoundTripTest, SerializeThenParseIsIdentity) {
  umiddle::Rng rng(GetParam());
  Element tree = random_tree(rng, 4);
  auto parsed = parse(tree.to_string());
  ASSERT_TRUE(parsed.ok()) << tree.to_string();
  EXPECT_TRUE(equal_trees(tree, parsed.value())) << tree.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, XmlRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace umiddle::xml
