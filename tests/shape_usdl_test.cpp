// Unit + property tests for service shaping (shapes, queries), translator
// profiles, USDL parsing and binding lookup, the UMTP frame codec, and the QoS
// token bucket.
#include <gtest/gtest.h>

#include "common/rand.hpp"
#include "core/directory.hpp"
#include "core/profile.hpp"
#include "core/qos.hpp"
#include "core/shape.hpp"
#include "core/translator.hpp"
#include "core/umtp.hpp"
#include "core/usdl.hpp"
#include "xml/parser.hpp"

namespace umiddle::core {
namespace {

/// The smallest generic translator: no native protocol at all.
struct UsdlProbe final : UsdlTranslator {
  using UsdlTranslator::UsdlTranslator;
  Result<void> deliver(const std::string&, const Message&) override { return ok_result(); }
};

PortSpec digital(std::string name, Direction dir, const char* mime) {
  PortSpec p;
  p.name = std::move(name);
  p.kind = PortKind::digital;
  p.direction = dir;
  p.type = MimeType::of(mime);
  return p;
}

PortSpec physical(std::string name, Direction dir, const char* tag) {
  PortSpec p = digital(std::move(name), dir, tag);
  p.kind = PortKind::physical;
  return p;
}

/// The paper's PostScript-printer example shape (§3.3).
Shape printer_shape() {
  Shape s;
  EXPECT_TRUE(s.add(digital("doc-in", Direction::input, "text/ps")).ok());
  EXPECT_TRUE(s.add(physical("paper-out", Direction::output, "visible/paper")).ok());
  return s;
}

Shape camera_shape() {
  Shape s;
  EXPECT_TRUE(s.add(digital("image-out", Direction::output, "image/jpeg")).ok());
  return s;
}

Shape tv_shape() {
  Shape s;
  EXPECT_TRUE(s.add(digital("image-in", Direction::input, "image/jpeg")).ok());
  EXPECT_TRUE(s.add(physical("screen", Direction::output, "visible/screen")).ok());
  return s;
}

// --- Shape ------------------------------------------------------------------------

TEST(ShapeTest, AddAndFind) {
  Shape s = printer_shape();
  EXPECT_EQ(s.size(), 2u);
  ASSERT_NE(s.find("doc-in"), nullptr);
  EXPECT_EQ(s.find("doc-in")->type.to_string(), "text/ps");
  EXPECT_EQ(s.find("nope"), nullptr);
}

TEST(ShapeTest, DuplicatePortNameRejected) {
  Shape s;
  ASSERT_TRUE(s.add(digital("p", Direction::input, "a/b")).ok());
  auto r = s.add(digital("p", Direction::output, "c/d"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::already_exists);
}

TEST(ShapeTest, DigitalPortFilters) {
  Shape s = tv_shape();
  EXPECT_EQ(s.digital_inputs().size(), 1u);
  EXPECT_EQ(s.digital_outputs().size(), 0u);
  EXPECT_EQ(s.digital_inputs()[0]->name, "image-in");
}

TEST(ShapeTest, Connectable) {
  PortSpec out = digital("o", Direction::output, "image/jpeg");
  PortSpec in = digital("i", Direction::input, "image/jpeg");
  EXPECT_TRUE(PortSpec::connectable(out, in));
  EXPECT_FALSE(PortSpec::connectable(in, out));  // direction matters
  PortSpec wrong = digital("i", Direction::input, "image/png");
  EXPECT_FALSE(PortSpec::connectable(out, wrong));
  PortSpec wild = digital("i", Direction::input, "image/*");
  EXPECT_TRUE(PortSpec::connectable(out, wild));
  // Physical ports never carry messages.
  PortSpec phys = physical("p", Direction::input, "visible/paper");
  EXPECT_FALSE(PortSpec::connectable(out, phys));
}

TEST(ShapeTest, XmlRoundTrip) {
  Shape s = printer_shape();
  xml::Writer out;
  s.write(out);
  auto doc = xml::parse(std::move(out).take());
  ASSERT_TRUE(doc.ok());
  auto back = Shape::from_xml(doc.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), s);
}

TEST(ShapeTest, FromXmlRejectsBadInput) {
  auto bad_child = xml::parse("<shape><weird/></shape>");
  EXPECT_FALSE(Shape::from_xml(bad_child.value()).ok());
  auto no_name = xml::parse("<shape><digital-port direction=\"input\" mime=\"a/b\"/></shape>");
  EXPECT_FALSE(Shape::from_xml(no_name.value()).ok());
  auto bad_dir = xml::parse("<shape><digital-port name=\"x\" direction=\"sideways\" mime=\"a/b\"/></shape>");
  EXPECT_FALSE(Shape::from_xml(bad_dir.value()).ok());
  auto bad_mime = xml::parse("<shape><digital-port name=\"x\" direction=\"input\" mime=\"nope\"/></shape>");
  EXPECT_FALSE(Shape::from_xml(bad_mime.value()).ok());
}

// --- Query -------------------------------------------------------------------------

TEST(QueryTest, PaperViewAndPrintExample) {
  // "If a user wishes to view a document ... the application can select a
  //  device with an input port of the document's MIME-type and physical output
  //  port of visible/*. If the user wants to print it, visible/paper." (§3.3)
  Shape printer = printer_shape();
  Shape tv = tv_shape();

  Query view_ps = Query().digital_input(MimeType::of("text/ps"))
                      .physical_output(MimeType::of("visible/*"));
  EXPECT_TRUE(view_ps.matches_shape(printer));
  EXPECT_FALSE(view_ps.matches_shape(tv));  // tv takes jpeg, not ps

  Query print = Query().physical_output(MimeType::of("visible/paper"));
  EXPECT_TRUE(print.matches_shape(printer));
  EXPECT_FALSE(print.matches_shape(tv));

  Query view_any = Query().physical_output(MimeType::of("visible/*"));
  EXPECT_TRUE(view_any.matches_shape(printer));
  EXPECT_TRUE(view_any.matches_shape(tv));
}

TEST(QueryTest, EmptyQueryMatchesEverything) {
  EXPECT_TRUE(Query().matches_shape(camera_shape()));
  EXPECT_TRUE(Query().matches_shape(Shape{}));
}

TEST(QueryTest, AllRequirementsMustHold) {
  Query q = Query()
                .digital_input(MimeType::of("image/jpeg"))
                .digital_output(MimeType::of("image/jpeg"));
  EXPECT_FALSE(q.matches_shape(tv_shape()));     // has input only
  EXPECT_FALSE(q.matches_shape(camera_shape())); // has output only
  Shape both = tv_shape();
  ASSERT_TRUE(both.add(digital("thumb-out", Direction::output, "image/jpeg")).ok());
  EXPECT_TRUE(q.matches_shape(both));
}

TEST(QueryTest, ProfileFilters) {
  TranslatorProfile p;
  p.id = TranslatorId(7);
  p.node = NodeId(1);
  p.name = "BIP Digital Camera";
  p.platform = "bluetooth";
  p.shape = camera_shape();

  EXPECT_TRUE(matches(Query().platform("bluetooth"), p));
  EXPECT_FALSE(matches(Query().platform("upnp"), p));
  EXPECT_TRUE(matches(Query().name_contains("Camera"), p));
  EXPECT_FALSE(matches(Query().name_contains("Printer"), p));
  EXPECT_TRUE(matches(Query().platform("bluetooth").digital_output(MimeType::of("image/*")), p));
}

TEST(QueryTest, XmlRoundTrip) {
  Query q = Query()
                .digital_input(MimeType::of("image/jpeg"))
                .physical_output(MimeType::of("visible/*"))
                .platform("upnp")
                .name_contains("TV");
  auto back = Query::from_xml(q.to_xml());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().to_xml().to_string(), q.to_xml().to_string());
  // Behavioural equivalence on a shape:
  EXPECT_EQ(back.value().matches_shape(tv_shape()), q.matches_shape(tv_shape()));
}

// Property: a query built from a shape's own ports always matches that shape.
class QuerySelfMatchTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuerySelfMatchTest, ShapeMatchesItsOwnTemplate) {
  Rng rng(GetParam());
  const char* types[] = {"image/jpeg", "text/plain", "audio/wav", "application/x-control"};
  Shape shape;
  std::size_t n = 1 + rng.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    PortSpec p = digital(name,
                         rng.chance(0.5) ? Direction::input : Direction::output,
                         types[rng.below(4)]);
    if (rng.chance(0.3)) p.kind = PortKind::physical;
    ASSERT_TRUE(shape.add(std::move(p)).ok());
  }
  Query q;
  for (const PortSpec& p : shape.ports()) {
    q.require(PortQuery{p.kind, p.direction, p.type});
  }
  EXPECT_TRUE(q.matches_shape(shape));
}

INSTANTIATE_TEST_SUITE_P(Random, QuerySelfMatchTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- TranslatorProfile ----------------------------------------------------------------

TEST(ProfileTest, XmlRoundTrip) {
  TranslatorProfile p;
  p.id = TranslatorId(0x500000001ull);
  p.node = NodeId(5);
  p.name = "UPnP MediaRenderer TV";
  p.platform = "upnp";
  p.device_type = "urn:schemas-upnp-org:device:MediaRenderer:1";
  p.shape = tv_shape();

  auto advert = xml::parse(announce_text(p, NodeInfo{NodeId(9), "host-b", 7702}));
  ASSERT_TRUE(advert.ok());
  ASSERT_NE(advert.value().child("translator"), nullptr);
  auto back = TranslatorProfile::from_xml(*advert.value().child("translator"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().id, p.id);
  EXPECT_EQ(back.value().node, p.node);
  EXPECT_EQ(back.value().name, p.name);
  EXPECT_EQ(back.value().platform, p.platform);
  EXPECT_EQ(back.value().device_type, p.device_type);
  EXPECT_EQ(back.value().shape, p.shape);
}

TEST(ProfileTest, FromXmlRejectsBadInput) {
  EXPECT_FALSE(TranslatorProfile::from_xml(xml::parse("<other/>").value()).ok());
  EXPECT_FALSE(
      TranslatorProfile::from_xml(xml::parse("<translator id=\"0\" node=\"1\"><shape/></translator>").value()).ok());
  EXPECT_FALSE(
      TranslatorProfile::from_xml(xml::parse("<translator id=\"1\" node=\"1\"/>").value()).ok());
}

// --- USDL --------------------------------------------------------------------------------

constexpr const char* kLightUsdl = R"(
<usdl version="1">
  <service platform="upnp" match="urn:schemas-upnp-org:device:BinaryLight:1" name="UPnP Light">
    <shape>
      <digital-port name="power-on" direction="input" mime="application/x-upnp-control"/>
      <digital-port name="power-off" direction="input" mime="application/x-upnp-control"/>
      <physical-port name="glow" direction="output" tag="visible/light"/>
    </shape>
    <bindings>
      <binding port="power-on" kind="action">
        <native service="SwitchPower" action="SetPower"><arg name="Power" value="1"/></native>
      </binding>
      <binding port="power-off" kind="action">
        <native service="SwitchPower" action="SetPower"><arg name="Power" value="0"/></native>
      </binding>
    </bindings>
  </service>
</usdl>)";

TEST(UsdlTest, ParsesThePaperLightExample) {
  // §3.4: "the USDL document defines two digital input ports to the translator
  //  corresponding to the light device; one is to switch on passing 1 ... and
  //  the other is to switch off passing 0".
  auto doc = parse_usdl(kLightUsdl);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().services.size(), 1u);
  const UsdlService& s = doc.value().services[0];
  EXPECT_EQ(s.platform, "upnp");
  EXPECT_EQ(s.name, "UPnP Light");
  EXPECT_EQ(s.shape.digital_inputs().size(), 2u);
  ASSERT_EQ(s.bindings.size(), 2u);
  EXPECT_EQ(s.bindings[0].kind, "action");
  EXPECT_EQ(s.bindings[0].native.attr("action"), "SetPower");
  ASSERT_EQ(s.bindings[0].native.args.size(), 1u);
  EXPECT_EQ(s.bindings[0].native.args[0].value, "1");
  EXPECT_EQ(s.bindings[1].native.args[0].value, "0");
  const UsdlProbe light("Light", s);
  EXPECT_EQ(light.find_binding("action", "power-on"), &s.bindings[0]);
  EXPECT_EQ(light.find_binding("action", "missing"), nullptr);
}

constexpr const char* kMixedUsdl = R"(<usdl><service platform="p" match="p:mixed">
  <hierarchy entities="3"/>
  <shape>
    <digital-port name="in" direction="input" mime="text/plain"/>
    <digital-port name="out" direction="output" mime="text/plain"/>
  </shape>
  <bindings>
    <binding port="in" kind="query" emit="out"><native method="first"/></binding>
    <binding port="in" kind="call"><native method="call"/></binding>
    <binding port="in" kind="query"><native method="second"/></binding>
    <binding port="out" kind="event"><native var="a"/></binding>
    <binding port="out" kind="query"><native method="third"/></binding>
  </bindings>
</service></usdl>)";

TEST(UsdlTranslatorTest, FindBindingIsTheFirstOfItsKindOnThePort) {
  auto doc = parse_usdl(kMixedUsdl);
  ASSERT_TRUE(doc.ok());
  const UsdlService& s = doc.value().services[0];
  const UsdlProbe t("Mixed", s);
  // Hit: the first "query" binding on "in" in document order, not the later one.
  EXPECT_EQ(t.find_binding("query", "in"), &s.bindings[0]);
  EXPECT_EQ(t.find_binding("call", "in"), &s.bindings[1]);
  EXPECT_EQ(t.find_binding("query", "out"), &s.bindings[4]);
  // Kind mismatch: "in" has no "event" binding, "out" has no "call" binding.
  EXPECT_EQ(t.find_binding("event", "in"), nullptr);
  EXPECT_EQ(t.find_binding("call", "out"), nullptr);
  // Unknown port.
  EXPECT_EQ(t.find_binding("query", "ghost"), nullptr);
}

TEST(UsdlTranslatorTest, BindingsOfAKindComeInDocumentOrder) {
  auto doc = parse_usdl(kMixedUsdl);
  ASSERT_TRUE(doc.ok());
  const UsdlService& s = doc.value().services[0];
  const UsdlProbe t("Mixed", s);
  std::vector<const UsdlBinding*> queries;
  for (const UsdlBinding& b : t.bindings("query")) queries.push_back(&b);
  EXPECT_EQ(queries, (std::vector<const UsdlBinding*>{&s.bindings[0], &s.bindings[2],
                                                       &s.bindings[4]}));
  EXPECT_TRUE(std::ranges::empty(t.bindings("gateway")));
}

TEST(UsdlTranslatorTest, IdentityShapeAndHierarchyComeFromTheDescription) {
  auto doc = parse_usdl(kMixedUsdl);
  ASSERT_TRUE(doc.ok());
  const UsdlService& s = doc.value().services[0];
  const UsdlProbe t("Mixed", s);
  EXPECT_EQ(t.profile().name, "Mixed");
  EXPECT_EQ(t.profile().platform, "p");
  EXPECT_EQ(t.profile().device_type, "p:mixed");
  EXPECT_EQ(t.profile().shape.size(), 2u);
  EXPECT_EQ(t.hierarchy_entities(), 3);
  EXPECT_EQ(&t.usdl(), &s);
}

TEST(UsdlTest, HierarchyEntities) {
  auto doc = parse_usdl(R"(<usdl><service platform="upnp" match="clock">
    <hierarchy entities="2"/>
    <shape><digital-port name="t" direction="output" mime="text/plain"/></shape>
  </service></usdl>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().services[0].hierarchy_entities, 2);
}

TEST(UsdlTest, RejectsInvalidDocuments) {
  EXPECT_FALSE(parse_usdl("<notusdl/>").ok());
  EXPECT_FALSE(parse_usdl("<usdl/>").ok());  // no services
  // binding referencing unknown port
  EXPECT_FALSE(parse_usdl(R"(<usdl><service platform="p" match="m">
    <shape><digital-port name="a" direction="input" mime="x/y"/></shape>
    <bindings><binding port="ghost" kind="action"><native/></binding></bindings>
  </service></usdl>)").ok());
  // emit port that is an input
  EXPECT_FALSE(parse_usdl(R"(<usdl><service platform="p" match="m">
    <shape><digital-port name="a" direction="input" mime="x/y"/></shape>
    <bindings><binding port="a" kind="query" emit="a"><native/></binding></bindings>
  </service></usdl>)").ok());
  // missing shape
  EXPECT_FALSE(parse_usdl(R"(<usdl><service platform="p" match="m"/></usdl>)").ok());
  // missing match
  EXPECT_FALSE(parse_usdl(R"(<usdl><service platform="p">
    <shape><digital-port name="a" direction="input" mime="x/y"/></shape></service></usdl>)").ok());
}

TEST(UsdlTest, SerializeParseRoundTrip) {
  auto doc = parse_usdl(kLightUsdl);
  ASSERT_TRUE(doc.ok());
  auto again = parse_usdl(usdl_text(doc.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), doc.value());
  EXPECT_EQ(usdl_text(again.value()), usdl_text(doc.value()));
}

TEST(UsdlLibraryTest, FindAndOverride) {
  UsdlLibrary lib;
  ASSERT_TRUE(lib.add_text(kLightUsdl).ok());
  EXPECT_EQ(lib.size(), 1u);
  const UsdlService* s = lib.find("upnp", "urn:schemas-upnp-org:device:BinaryLight:1");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name, "UPnP Light");
  EXPECT_EQ(lib.find("upnp", "unknown"), nullptr);
  EXPECT_EQ(lib.find("bluetooth", "urn:schemas-upnp-org:device:BinaryLight:1"), nullptr);
  EXPECT_EQ(lib.services_for("upnp").size(), 1u);

  // Later registration with the same key overrides (user customization).
  std::string overridden = kLightUsdl;
  auto pos = overridden.find("UPnP Light");
  overridden.replace(pos, 10, "Hue Bridge");
  ASSERT_TRUE(lib.add_text(overridden).ok());
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_EQ(lib.find("upnp", "urn:schemas-upnp-org:device:BinaryLight:1")->name, "Hue Bridge");
}

TEST(UsdlLibraryTest, OverrideLeavesLiveTranslatorsOnTheirDescription) {
  constexpr const char* kMatch = "urn:schemas-upnp-org:device:BinaryLight:1";
  UsdlLibrary lib;
  ASSERT_TRUE(lib.add_text(kLightUsdl).ok());
  const UsdlProbe light("Light", *lib.find("upnp", kMatch));
  const UsdlBinding* on = light.find_binding("action", "power-on");
  ASSERT_NE(on, nullptr);

  // A user override of the same (platform, match) with other ports and bindings.
  ASSERT_TRUE(lib.add_text(R"(<usdl version="1">
    <service platform="upnp" match="urn:schemas-upnp-org:device:BinaryLight:1" name="Dimmer">
      <shape><digital-port name="dim" direction="input" mime="application/x-upnp-control"/></shape>
      <bindings><binding port="dim" kind="action">
        <native service="Dimming" action="SetLoadLevelTarget"/>
      </binding></bindings>
    </service></usdl>)").ok());
  EXPECT_EQ(lib.size(), 1u);

  // The live translator keeps the description it was built from ...
  EXPECT_EQ(light.usdl().shape, light.profile().shape);
  EXPECT_EQ(light.usdl().name, "UPnP Light");
  EXPECT_EQ(light.find_binding("action", "power-on"), on);
  EXPECT_EQ(on->native.attrs.at("service"), "SwitchPower");
  EXPECT_EQ(light.find_binding("action", "dim"), nullptr);
  // ... and the next import sees the override.
  const UsdlProbe dimmer("Dimmer", *lib.find("upnp", kMatch));
  EXPECT_EQ(dimmer.usdl().shape, dimmer.profile().shape);
  ASSERT_NE(dimmer.find_binding("action", "dim"), nullptr);
  EXPECT_EQ(dimmer.find_binding("action", "power-on"), nullptr);
}

// --- UMTP codec -------------------------------------------------------------------------

TEST(UmtpTest, DataFrameRoundTrip) {
  umtp::DataFrame f;
  f.dst = PortRef{TranslatorId(0x100000007ull), "image-in"};
  f.message.type = MimeType::of("image/jpeg");
  f.message.payload = {1, 2, 3, 4, 5};
  f.message.meta["filename"] = "dsc001.jpg";

  Bytes wire = umtp::encode(umtp::Frame{f});
  std::vector<umtp::Frame> out;
  umtp::Reader asmb;
  ASSERT_TRUE(asmb.feed(wire, out).ok());
  ASSERT_EQ(out.size(), 1u);
  const auto& back = std::get<umtp::DataFrame>(out[0]);
  EXPECT_EQ(back.dst.translator, f.dst.translator);
  EXPECT_EQ(back.dst.port, "image-in");
  EXPECT_EQ(back.message.type.to_string(), "image/jpeg");
  EXPECT_EQ(back.message.payload, f.message.payload);
  EXPECT_EQ(back.message.meta.at("filename"), "dsc001.jpg");
}

TEST(UmtpTest, ConnectFrameFixedAndQuery) {
  umtp::ConnectFrame fixed;
  fixed.path = PathId(42);
  fixed.src = PortRef{TranslatorId(1), "out"};
  fixed.dst = PortRef{TranslatorId(2), "in"};
  std::vector<umtp::Frame> out;
  umtp::Reader asmb;
  ASSERT_TRUE(asmb.feed(umtp::encode(umtp::Frame{fixed}), out).ok());
  ASSERT_EQ(out.size(), 1u);
  const auto& back = std::get<umtp::ConnectFrame>(out[0]);
  EXPECT_EQ(back.path, PathId(42));
  EXPECT_EQ(std::get<PortRef>(back.dst).port, "in");

  umtp::ConnectFrame query;
  query.path = PathId(43);
  query.src = PortRef{TranslatorId(1), "out"};
  query.dst = Query().digital_input(MimeType::of("image/*")).platform("upnp");
  out.clear();
  ASSERT_TRUE(asmb.feed(umtp::encode(umtp::Frame{query}), out).ok());
  ASSERT_EQ(out.size(), 1u);
  const auto& qback = std::get<umtp::ConnectFrame>(out[0]);
  EXPECT_EQ(std::get<Query>(qback.dst).platform_filter(), "upnp");
}

TEST(UmtpTest, DisconnectRoundTrip) {
  std::vector<umtp::Frame> out;
  umtp::Reader asmb;
  ASSERT_TRUE(asmb.feed(umtp::encode(umtp::Frame{umtp::DisconnectFrame{PathId(9)}}), out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<umtp::DisconnectFrame>(out[0]).path, PathId(9));
}

TEST(UmtpTest, AssemblerHandlesFragmentationAndCoalescing) {
  umtp::DataFrame f;
  f.dst = PortRef{TranslatorId(1), "p"};
  f.message.type = MimeType::of("text/plain");
  f.message.payload = Bytes(3000, 0x61);
  Bytes wire = umtp::encode(umtp::Frame{f});
  Bytes doubled = wire;
  doubled.insert(doubled.end(), wire.begin(), wire.end());

  // Feed byte-by-byte: frames must pop out exactly twice.
  umtp::Reader asmb;
  std::vector<umtp::Frame> out;
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    ASSERT_TRUE(asmb.feed(std::span(&doubled[i], 1), out).ok());
  }
  ASSERT_EQ(out.size(), 2u);
  for (const auto& frame : out) {
    EXPECT_EQ(std::get<umtp::DataFrame>(frame).message.payload.size(), 3000u);
  }
}

TEST(UmtpTest, MalformedFramePoisonsAssembler) {
  ByteWriter w;
  w.u32(3);
  w.u8(99);  // unknown type
  w.u16(0);
  umtp::Reader asmb;
  std::vector<umtp::Frame> out;
  EXPECT_FALSE(asmb.feed(w.data(), out).ok());
  EXPECT_FALSE(asmb.feed(Bytes{0}, out).ok());  // still poisoned
}

TEST(UmtpTest, OversizeFrameRejected) {
  ByteWriter w;
  w.u32(0x7FFFFFFF);
  umtp::Reader asmb;
  std::vector<umtp::Frame> out;
  EXPECT_FALSE(asmb.feed(w.data(), out).ok());
}

// Property: encode∘decode = id for random data frames.
class UmtpRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UmtpRoundTripTest, RandomDataFrames) {
  Rng rng(GetParam());
  umtp::DataFrame f;
  f.dst = PortRef{TranslatorId(rng.between(1, 1u << 20)), rng.ident(8)};
  f.message.type = MimeType(rng.ident(5), rng.ident(7));
  f.message.payload.resize(rng.below(5000));
  for (auto& b : f.message.payload) b = static_cast<std::uint8_t>(rng.next());
  std::size_t metas = rng.below(4);
  for (std::size_t i = 0; i < metas; ++i) f.message.meta[rng.ident(4)] = rng.ident(12);

  std::vector<umtp::Frame> out;
  umtp::Reader asmb;
  ASSERT_TRUE(asmb.feed(umtp::encode(umtp::Frame{f}), out).ok());
  ASSERT_EQ(out.size(), 1u);
  const auto& back = std::get<umtp::DataFrame>(out[0]);
  EXPECT_EQ(back.dst.translator, f.dst.translator);
  EXPECT_EQ(back.dst.port, f.dst.port);
  EXPECT_EQ(back.message.payload, f.message.payload);
  EXPECT_EQ(back.message.meta, f.message.meta);
}

INSTANTIATE_TEST_SUITE_P(Random, UmtpRoundTripTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// --- TokenBucket ---------------------------------------------------------------------------

TEST(TokenBucketTest, BurstThenRefill) {
  TokenBucket bucket(1000.0, 500);  // 1000 B/s, 500 B burst
  sim::TimePoint t0{0};
  EXPECT_TRUE(bucket.try_consume(500, t0));   // full burst available
  EXPECT_FALSE(bucket.try_consume(1, t0));    // empty now
  sim::TimePoint t1 = sim::milliseconds(100); // +100 ms → +100 tokens
  EXPECT_TRUE(bucket.try_consume(100, t1));
  EXPECT_FALSE(bucket.try_consume(1, t1));
}

TEST(TokenBucketTest, DelayForIsAccurate) {
  TokenBucket bucket(1000.0, 500);
  sim::TimePoint t0{0};
  ASSERT_TRUE(bucket.try_consume(500, t0));
  sim::Duration d = bucket.delay_for(250, t0);
  EXPECT_EQ(d, sim::milliseconds(250));
  EXPECT_EQ(bucket.delay_for(250, t0 + d), sim::Duration(0));
}

TEST(TokenBucketTest, CapsAtBurst) {
  TokenBucket bucket(1000.0, 500);
  sim::TimePoint later = sim::seconds(100);  // long idle
  EXPECT_DOUBLE_EQ(bucket.tokens(later), 500.0);
}

TEST(TokenBucketTest, OversizeMessagePassesAtFullBucket) {
  TokenBucket bucket(1000.0, 500);
  // A 2000-byte message exceeds the burst; it must pass once (bucket full) and
  // then delay subsequent traffic via token debt.
  EXPECT_TRUE(bucket.try_consume(2000, sim::TimePoint{0}));
  EXPECT_FALSE(bucket.try_consume(1, sim::seconds(1)));
  EXPECT_TRUE(bucket.try_consume(100, sim::seconds(2)));
}

TEST(TokenBucketTest, RateIsRespectedLongRun) {
  TokenBucket bucket(10000.0, 1000);
  sim::TimePoint now{0};
  std::uint64_t sent = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bucket.try_consume(100, now)) sent += 100;
    now += sim::milliseconds(1);
  }
  // 10 s at 10 kB/s = 100 kB (+1 kB initial burst tolerance)
  EXPECT_GE(sent, 100000u);
  EXPECT_LE(sent, 101100u);
}

}  // namespace
}  // namespace umiddle::core
