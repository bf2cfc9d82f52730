#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "../bench/bench_util.h"

namespace aggview {
namespace bench {
namespace {

TEST(JsonEscapeTest, PlainTextPassesThrough) {
  EXPECT_EQ(JsonEscape("E13: exec throughput"), "E13: exec throughput");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, QuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\tmp\\x"), "C:\\\\tmp\\\\x");
}

TEST(JsonEscapeTest, NamedControlEscapes) {
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape("a\bb"), "a\\bb");
  EXPECT_EQ(JsonEscape("a\fb"), "a\\fb");
}

TEST(JsonEscapeTest, OtherControlCharsBecomeU00XX) {
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscapeTest, HighBytesAreNotSignExtended) {
  // 0xE9 as a signed char is negative; a naive %04x print would emit
  // "\uffffffe9". UTF-8 bytes must pass through untouched instead.
  std::string utf8 = "caf\xC3\xA9";
  EXPECT_EQ(JsonEscape(utf8), utf8);
}

TEST(IsJsonNumberTest, AcceptsRfc8259Numbers) {
  EXPECT_TRUE(IsJsonNumber("0"));
  EXPECT_TRUE(IsJsonNumber("-0"));
  EXPECT_TRUE(IsJsonNumber("42"));
  EXPECT_TRUE(IsJsonNumber("-17"));
  EXPECT_TRUE(IsJsonNumber("3.14"));
  EXPECT_TRUE(IsJsonNumber("0.5"));
  EXPECT_TRUE(IsJsonNumber("1e9"));
  EXPECT_TRUE(IsJsonNumber("2.5E-3"));
  EXPECT_TRUE(IsJsonNumber("1e+06"));
}

TEST(IsJsonNumberTest, RejectsWhatStrtodWronglyAccepts) {
  // strtod parses all of these, but none is a valid unquoted JSON token.
  EXPECT_FALSE(IsJsonNumber("inf"));
  EXPECT_FALSE(IsJsonNumber("-inf"));
  EXPECT_FALSE(IsJsonNumber("nan"));
  EXPECT_FALSE(IsJsonNumber("NaN"));
  EXPECT_FALSE(IsJsonNumber("0x1f"));
  EXPECT_FALSE(IsJsonNumber("007"));
  EXPECT_FALSE(IsJsonNumber("  1"));
  EXPECT_FALSE(IsJsonNumber("1 "));
}

TEST(IsJsonNumberTest, RejectsMalformedTokens) {
  EXPECT_FALSE(IsJsonNumber(""));
  EXPECT_FALSE(IsJsonNumber("-"));
  EXPECT_FALSE(IsJsonNumber("+1"));
  EXPECT_FALSE(IsJsonNumber("1."));
  EXPECT_FALSE(IsJsonNumber(".5"));
  EXPECT_FALSE(IsJsonNumber("1e"));
  EXPECT_FALSE(IsJsonNumber("1e+"));
  EXPECT_FALSE(IsJsonNumber("--1"));
  EXPECT_FALSE(IsJsonNumber("1.2.3"));
}

TEST(JsonLiteralTest, NumbersUnquotedStringsQuotedAndEscaped) {
  EXPECT_EQ(JsonLiteral("3.5"), "3.5");
  EXPECT_EQ(JsonLiteral("-12"), "-12");
  EXPECT_EQ(JsonLiteral("inf"), "\"inf\"");
  EXPECT_EQ(JsonLiteral("nan"), "\"nan\"");
  EXPECT_EQ(JsonLiteral("007"), "\"007\"");
  EXPECT_EQ(JsonLiteral("he\"llo"), "\"he\\\"llo\"");
  EXPECT_EQ(JsonLiteral("a\nb"), "\"a\\nb\"");
}

TEST(JsonWriterTest, EmitsWellFormedDocumentForHostileCells) {
  testing::internal::CaptureStdout();
  {
    JsonWriter writer("E\"99\"\n", {"name", "qps", "note"});
    writer.Row({"q\\1", "123.4", "took\t5ms"});
    writer.Row({"q2", "inf", "line1\nline2"});
  }
  std::string doc = testing::internal::GetCapturedStdout();

  // The host stamp: this test binary gets no build definitions, so build
  // type, compiler and source stamp fall back to "unknown".
  const std::string host =
      "{\"cores\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": \"unknown\", \"compiler\": \"unknown\", "
      "\"git_sha\": \"unknown\"}";
  EXPECT_EQ(doc,
            "{\"experiment\": \"E\\\"99\\\"\\n\", \"host\": " + host +
            ", \"rows\": [\n"
            "  {\"name\": \"q\\\\1\", \"qps\": 123.4, \"note\": "
            "\"took\\t5ms\"},\n"
            "  {\"name\": \"q2\", \"qps\": \"inf\", \"note\": "
            "\"line1\\nline2\"}]}\n");
}

}  // namespace
}  // namespace bench
}  // namespace aggview
