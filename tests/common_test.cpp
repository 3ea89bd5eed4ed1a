// Unit tests for the common toolkit: Result, strings, MIME matching, URIs, bytes.
#include <gtest/gtest.h>

#include <limits>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/mime.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "common/strings.hpp"
#include "common/uri.hpp"

namespace umiddle {
namespace {

// --- Result -------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = make_error(Errc::not_found, "missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
  EXPECT_EQ(r.error().message, "missing");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, VoidSuccessAndError) {
  Result<void> good = ok_result();
  EXPECT_TRUE(good.ok());
  Result<void> bad = make_error(Errc::timeout, "late");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::timeout);
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

TEST(ResultTest, ErrorToString) {
  Error e = make_error(Errc::parse_error, "bad token");
  EXPECT_EQ(e.to_string(), "parse_error: bad token");
}

// --- strings --------------------------------------------------------------------

TEST(StringsTest, SplitChar) {
  auto parts = strings::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitNoDelimiterYieldsWhole) {
  auto parts = strings::split("plain", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "plain");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(strings::trim("  x \t\r\n"), "x");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim(" \n "), "");
  EXPECT_EQ(strings::trim("no-trim"), "no-trim");
}

TEST(StringsTest, CaseFolding) {
  EXPECT_EQ(strings::to_lower("MiXeD-09"), "mixed-09");
  EXPECT_EQ(strings::to_upper("MiXeD-09"), "MIXED-09");
  EXPECT_TRUE(strings::iequals("Content-Length", "content-length"));
  EXPECT_FALSE(strings::iequals("Content-Length", "content-lengt"));
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(strings::starts_with("NOTIFY * HTTP/1.1", "NOTIFY"));
  EXPECT_FALSE(strings::starts_with("NO", "NOTIFY"));
  EXPECT_TRUE(strings::ends_with("device.xml", ".xml"));
  EXPECT_FALSE(strings::ends_with("xml", ".xml"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ", "), "");
}

TEST(StringsTest, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(strings::parse_u64("1400", v));
  EXPECT_EQ(v, 1400u);
  EXPECT_FALSE(strings::parse_u64("", v));
  EXPECT_FALSE(strings::parse_u64("12x", v));
  EXPECT_FALSE(strings::parse_u64("-3", v));
}

TEST(StringsTest, ParseU64RejectsOverflowInsteadOfWrapping) {
  std::uint64_t v = 0;
  ASSERT_TRUE(strings::parse_u64("18446744073709551615", v));  // UINT64_MAX
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(strings::parse_u64("00000000000000000000018446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());

  v = 7;
  EXPECT_FALSE(strings::parse_u64("18446744073709551616", v));  // UINT64_MAX + 1
  EXPECT_FALSE(strings::parse_u64("18446744073709551621", v));  // used to wrap to 5
  EXPECT_FALSE(strings::parse_u64("100000000000000000000", v));  // 21 digits
  EXPECT_FALSE(strings::parse_u64("99999999999999999999", v));
  EXPECT_EQ(v, 7u) << "a rejected parse leaves the output untouched";
}

// --- MIME ------------------------------------------------------------------------

TEST(MimeTest, ParseAndNormalize) {
  auto r = MimeType::parse(" Image/JPEG ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().type(), "image");
  EXPECT_EQ(r.value().subtype(), "jpeg");
  EXPECT_EQ(r.value().to_string(), "image/jpeg");
}

TEST(MimeTest, ParseRejectsMalformed) {
  EXPECT_FALSE(MimeType::parse("imagejpeg").ok());
  EXPECT_FALSE(MimeType::parse("image/").ok());
  EXPECT_FALSE(MimeType::parse("/jpeg").ok());
  EXPECT_FALSE(MimeType::parse("im age/jpeg").ok());
}

TEST(MimeTest, ExactMatch) {
  EXPECT_TRUE(MimeType::of("image/jpeg").matches(MimeType::of("image/jpeg")));
  EXPECT_FALSE(MimeType::of("image/jpeg").matches(MimeType::of("image/png")));
  EXPECT_FALSE(MimeType::of("image/jpeg").matches(MimeType::of("text/jpeg")));
}

TEST(MimeTest, WildcardSubtype) {
  // The paper's example: an application asking for "visible/*" output.
  EXPECT_TRUE(MimeType::of("visible/*").matches(MimeType::of("visible/paper")));
  EXPECT_TRUE(MimeType::of("visible/paper").matches(MimeType::of("visible/*")));
  EXPECT_FALSE(MimeType::of("visible/*").matches(MimeType::of("audible/sound")));
}

TEST(MimeTest, FullWildcard) {
  EXPECT_TRUE(MimeType::of("*/*").matches(MimeType::of("application/x-upnp-control")));
  EXPECT_TRUE(MimeType::of("application/x-upnp-control").matches(MimeType::of("*/*")));
}

TEST(MimeTest, MatchIsSymmetricOverRandomPairs) {
  // Property: matches() must be symmetric (port compatibility is undirected).
  Rng rng(7);
  const char* types[] = {"image", "text", "visible", "audible", "*"};
  const char* subs[] = {"jpeg", "png", "plain", "paper", "*"};
  for (int i = 0; i < 200; ++i) {
    MimeType a(types[rng.below(5)], subs[rng.below(5)]);
    MimeType b(types[rng.below(5)], subs[rng.below(5)]);
    EXPECT_EQ(a.matches(b), b.matches(a)) << a.to_string() << " vs " << b.to_string();
  }
}

TEST(MimeTest, MatchIsReflexive) {
  for (const char* t : {"image/jpeg", "visible/*", "*/*", "application/x-hid-report"}) {
    MimeType m = MimeType::of(t);
    EXPECT_TRUE(m.matches(m)) << t;
  }
}

// --- URI -------------------------------------------------------------------------

TEST(UriTest, FullForm) {
  auto r = Uri::parse("http://host2:8080/device/desc.xml");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().scheme, "http");
  EXPECT_EQ(r.value().host, "host2");
  EXPECT_EQ(r.value().port, 8080);
  EXPECT_EQ(r.value().path, "/device/desc.xml");
  EXPECT_EQ(r.value().to_string(), "http://host2:8080/device/desc.xml");
}

TEST(UriTest, DefaultPortAndPath) {
  auto r = Uri::parse("http://tv");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().port, 0);
  EXPECT_EQ(r.value().effective_port(), 80);
  EXPECT_EQ(r.value().path, "/");
}

TEST(UriTest, SchemeDefaults) {
  EXPECT_EQ(Uri::parse("rmi://reg").value().effective_port(), 1099);
  EXPECT_EQ(Uri::parse("mb://server").value().effective_port(), 5060);
}

TEST(UriTest, Rejects) {
  EXPECT_FALSE(Uri::parse("not-a-uri").ok());
  EXPECT_FALSE(Uri::parse("http://").ok());
  EXPECT_FALSE(Uri::parse("http://host:99999/").ok());
  EXPECT_FALSE(Uri::parse("http://host:0/").ok());
  EXPECT_FALSE(Uri::parse("://host/").ok());
}

// --- bytes -------------------------------------------------------------------------

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str16("obex");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str16(), "obex");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(BytesTest, UnderrunIsError) {
  Bytes buf = {0x01};
  ByteReader r(buf);
  (void)r.u8();
  EXPECT_TRUE(r.ok());
  (void)r.u16();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::parse_error);
}

TEST(BytesTest, FirstUnderrunLatches) {
  Bytes buf = {0x01, 0x02, 0x03};
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u32(), 0u);  // the first read that does not fit
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.position(), 1u);
  EXPECT_EQ(r.remaining(), 0u);
  // Later reads return zero or empty, even ones that would have fit, and the
  // error stays the first one.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.str16(), "");
  EXPECT_TRUE(r.bytes(1).empty());
  EXPECT_EQ(r.position(), 1u);
  EXPECT_EQ(r.error().message, "buffer underrun: need 4 bytes at offset 1, have 2");
}

TEST(BytesTest, StrAndBytes) {
  ByteWriter w;
  w.str("abc");
  Bytes raw = {1, 2, 3};
  w.bytes(raw);
  ByteReader r(w.data());
  EXPECT_EQ(r.str(3), "abc");
  EXPECT_EQ(r.bytes(3), raw);
}

TEST(BytesTest, HexDump) {
  Bytes b = {0xDE, 0xAD};
  EXPECT_EQ(hex(b), "de ad");
  EXPECT_EQ(hex(Bytes{}), "");
}

TEST(BytesTest, StringConversions) {
  Bytes b = to_bytes("hi");
  EXPECT_EQ(to_string(b), "hi");
}

// --- ids ---------------------------------------------------------------------------

TEST(IdsTest, DistinctSpacesAndGeneration) {
  IdGenerator<TranslatorId> gen;
  TranslatorId a = gen.next();
  TranslatorId b = gen.next();
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_FALSE(TranslatorId{}.valid());
}

// --- rng ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    auto v = rng.between(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace umiddle
