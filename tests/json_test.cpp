// util/json: the one JSON codec. The reader follows RFC 8259 strictly,
// keeps integers exact, decodes \u escapes and caps nesting; the writers
// (string escaper, 12-digit double formatter) produce what the reader and
// the old per-file copies agreed on, byte for byte.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/exposition.h"

namespace rbcast::util {
namespace {

Json parse(const std::string& text) { return parse_json(text, "test"); }

bool parses(const std::string& text) {
  try {
    (void)parse(text);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

std::string nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(ParseJson, AcceptsValidDocuments) {
  for (const char* ok :
       {"{}", "[]", "null", "true", "-1.5e3", "\"a\\u00e9b\"",
        R"([{"a":[1,2,{"b":null}]},"x"])", "  [1,\n2]  ", "0", "-0",
        "0.5e-3", "1E+2", R"({"a":1,"a":2})"}) {
    EXPECT_TRUE(parses(ok)) << ok;
  }
}

TEST(ParseJson, RejectsInvalidDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "[1 2]", "nul", "\"unterminated",
        "01", "[1],", "{\"a\" 1}", "\"bad\\q\"", "{\"a\":1,}", "[,1]",
        "\"tab\there\"", "\"\\u12\"", "\"\\u12g4\""}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

TEST(ParseJson, RejectsNumbersOutsideTheRfcGrammar) {
  for (const char* bad : {"1.2.3", "+5", "01", "-01", "1e5e5", "1.", ".5",
                          "1e", "1e+", "-", "--1", "0x10", "1.5.", "[1.2.3]",
                          "NaN", "Infinity"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

TEST(ParseJson, RejectsPathologicalNesting) {
  try {
    (void)parse(nested(100));
    FAIL() << "100 nested arrays parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("deeper"), std::string::npos)
        << e.what();
  }
}

TEST(ParseJson, DepthCapIsSixtyFourContainers) {
  EXPECT_TRUE(parses(nested(kJsonMaxDepth)));
  EXPECT_FALSE(parses(nested(kJsonMaxDepth + 1)));
  std::string objects;
  for (int i = 0; i < kJsonMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(kJsonMaxDepth, '}');
  EXPECT_TRUE(parses(objects));
  EXPECT_FALSE(parses("[" + objects + "]"));
}

TEST(ParseJson, HostileNestingThrowsInsteadOfOverflowingTheStack) {
  EXPECT_FALSE(parses(std::string(100000, '[')));
  EXPECT_FALSE(parses(std::string(100000, '{')));
}

TEST(ParseJson, IntegersKeepTheirExactValueAndType) {
  const Json u = parse("18446744073709551615");
  ASSERT_TRUE(std::holds_alternative<std::uint64_t>(u.number));
  EXPECT_EQ(std::get<std::uint64_t>(u.number),
            std::numeric_limits<std::uint64_t>::max());

  const Json i = parse("-9223372036854775808");
  ASSERT_TRUE(std::holds_alternative<std::int64_t>(i.number));
  EXPECT_EQ(std::get<std::int64_t>(i.number),
            std::numeric_limits<std::int64_t>::min());

  const Json big = parse("9007199254740993");  // 2^53 + 1
  EXPECT_EQ(std::get<std::uint64_t>(big.number), 9007199254740993ULL);

  EXPECT_TRUE(std::holds_alternative<std::int64_t>(parse("-0").number));
  EXPECT_TRUE(std::holds_alternative<double>(parse("1.0").number));
  EXPECT_TRUE(std::holds_alternative<double>(parse("1e2").number));
  EXPECT_DOUBLE_EQ(std::get<double>(parse("-1.5e3").number), -1500.0);

  // Out of range is an error, never a silent rounding to double.
  EXPECT_FALSE(parses("18446744073709551616"));
  EXPECT_FALSE(parses("-9223372036854775809"));
  EXPECT_FALSE(parses("1e400"));
}

TEST(ParseJson, DecodesUnicodeEscapes) {
  EXPECT_EQ(parse("\"\\u00e9\"").str, "\xC3\xA9");  // é
  EXPECT_EQ(parse("\"a\\u0001b\"").str, "a\x01" "b");
  EXPECT_EQ(parse("\"\\u20AC\"").str, "\xE2\x82\xAC");
  EXPECT_EQ(parse("\"\\uFFFF\"").str, "\xEF\xBF\xBF");
  EXPECT_EQ(parse("\"caf\xC3\xA9\"").str, "caf\xC3\xA9");  // raw UTF-8
  // Outside the basic multilingual plane: surrogate escapes are refused.
  EXPECT_FALSE(parses("\"\\ud83d\\ude00\""));
  EXPECT_FALSE(parses("\"\\udc00\""));
}

TEST(JsonAccess, IntRejectsFractionsAndValuesOutsideInt) {
  const Json cfg = parse(R"({"port":1e20,"half":1.5,"neg":-3,"sci":4e2,
                            "max":2147483647,"over":2147483648,"s":"x"})");
  EXPECT_THROW((void)json_int_or(cfg, "port", 0, "cfg"),
               std::invalid_argument);
  EXPECT_THROW((void)json_int_or(cfg, "half", 0, "cfg"),
               std::invalid_argument);
  EXPECT_THROW((void)json_int_or(cfg, "over", 0, "cfg"),
               std::invalid_argument);
  EXPECT_THROW((void)json_int_or(cfg, "s", 0, "cfg"), std::invalid_argument);
  EXPECT_EQ(json_int_or(cfg, "neg", 0, "cfg"), -3);
  EXPECT_EQ(json_int_or(cfg, "sci", 0, "cfg"), 400);
  EXPECT_EQ(json_int_or(cfg, "max", 0, "cfg"), 2147483647);
  EXPECT_EQ(json_int_or(cfg, "absent", 7, "cfg"), 7);
}

TEST(JsonAccess, U64IsExactAndNonNegative) {
  const Json cfg = parse(R"({"seed":18446744073709551615,"neg":-1,
                            "half":0.5,"sci":1e3,"big":1e19,"over":1e20})");
  EXPECT_EQ(json_u64_or(cfg, "seed", 0, "cfg"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(json_u64_or(cfg, "sci", 0, "cfg"), 1000u);
  EXPECT_EQ(json_u64_or(cfg, "big", 0, "cfg"), 10000000000000000000ULL);
  EXPECT_EQ(json_u64_or(cfg, "absent", 9, "cfg"), 9u);
  EXPECT_THROW((void)json_u64_or(cfg, "neg", 0, "cfg"),
               std::invalid_argument);
  EXPECT_THROW((void)json_u64_or(cfg, "half", 0, "cfg"),
               std::invalid_argument);
  EXPECT_THROW((void)json_u64_or(cfg, "over", 0, "cfg"),
               std::invalid_argument);
  try {
    (void)json_u64_or(cfg, "neg", 0, "cfg");
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "cfg: 'neg' must be non-negative");
  }
}

TEST(JsonWrite, EscapesExactlyLikeTheWritersItReplaced) {
  std::ostringstream os;
  write_json_string(os, std::string("a\"b\\c\nd\te\rf\x01g\x1f\x7f/\xC3\xA9"));
  EXPECT_EQ(os.str(),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001f\x7f/\xC3\xA9\"");
  EXPECT_EQ(json_string(""), "\"\"");
}

TEST(JsonWrite, EveryByteRoundTripsThroughTheReader) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(parse(json_string(all)).str, all);
}

TEST(JsonWrite, FormatDoubleMatchesStreamPrecisionTwelve) {
  for (double v : {0.0, 0.25, -1.5, 1.0 / 3.0, 1e-7, 123456789012345.0,
                   1e21, 2.5e-300, 100.0, 0.1 + 0.2}) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    EXPECT_EQ(format_double(v), os.str()) << v;
  }
}

TEST(StatusJson, CountersAboveTwoToThe53RoundTripExactly) {
  trace::StatusDoc doc;
  trace::HostStatus h;
  h.id = 3;
  h.deliveries = (std::uint64_t{1} << 53) + 1;
  h.info_count = std::numeric_limits<std::uint64_t>::max();
  h.cluster = {3, 9007199254740993};
  doc.hosts.push_back(h);
  MetricSnapshot counter;
  counter.name = "transport.datagrams_sent";
  counter.kind = MetricSnapshot::Kind::kCounter;
  counter.counter = std::numeric_limits<std::uint64_t>::max() - 1;
  doc.metrics.push_back(counter);

  const trace::StatusDoc back =
      trace::parse_status_json(trace::status_json(doc));
  ASSERT_EQ(back.hosts.size(), 1u);
  EXPECT_EQ(back.hosts[0].deliveries, h.deliveries);
  EXPECT_EQ(back.hosts[0].info_count, h.info_count);
  EXPECT_EQ(back.hosts[0].cluster, h.cluster);
  ASSERT_EQ(back.metrics.size(), 1u);
  EXPECT_EQ(back.metrics[0].counter, counter.counter);
}

TEST(StatusJson, RejectsFractionalAndNegativeCounters) {
  EXPECT_THROW(
      (void)trace::parse_status_json(R"({"hosts":[{"deliveries":1.5}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)trace::parse_status_json(R"({"hosts":[{"cluster":[-1]}]})"),
      std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::util
