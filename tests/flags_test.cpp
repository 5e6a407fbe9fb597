#include "cli/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace rbcast::cli {
namespace {

struct Outcome {
  std::optional<int> rc;
  std::string out;
  std::string err;
};

Outcome run(const Flags& flags, const std::vector<std::string>& args) {
  std::vector<const char*> argv{"tool"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  Outcome o;
  o.rc = flags.parse(static_cast<int>(argv.size()), argv.data(), out, err);
  o.out = out.str();
  o.err = err.str();
  return o;
}

enum class Shape { kLine, kRing };

// A table with one entry of every destination kind.
struct Table {
  int count = 3;
  double loss = 0.0;
  std::uint64_t seed = 1;
  std::string out = ".";
  std::optional<int> port;
  std::optional<std::string> spec;
  Shape shape = Shape::kRing;
  bool quiet = false;
  std::vector<std::string> paths;
  Flags flags{"tool", "a test tool"};

  Table() {
    flags.positional("PATH", &paths, "input files", 2);
    flags.text("group:");
    flags.add("--count", "N", &count, "how many", {.min = 1});
    flags.add("--loss", "P", &loss, "loss probability",
              {.min = 0, .below = 1});
    flags.add("--seed", "N", &seed, "seed");
    flags.add("--out", "DIR", &out, "output directory");
    flags.add("--port", "P", &port, "port", {.min = -1, .max = 65535});
    flags.add("--spec", "F", &spec, "spec file");
    flags.choice("--shape", "S", &shape,
                 {{"line", Shape::kLine}, {"ring", Shape::kRing}}, "shape");
    flags.add("--quiet", &quiet, "say less");
    flags.text("\nexit status: 0 ok\n");
  }
};

TEST(ParseNumber, AcceptsWholeValues) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-5"), -5);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("1e3"), 1000.0);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
}

TEST(ParseNumber, RejectsTrailingBytesAndBlanks) {
  for (const char* text : {"2x", "h1", "1e3", "3.", " 5", "5 ", "+5", "", "0x10"}) {
    EXPECT_FALSE(parse_number<int>(text).has_value()) << text;
  }
  for (const char* text : {"0.x", "abc", "1.5.2", "", "1e"}) {
    EXPECT_FALSE(parse_number<double>(text).has_value()) << text;
  }
}

TEST(ParseNumber, RejectsOverflowNegativeUnsignedAndNonFinite) {
  EXPECT_FALSE(parse_number<int>("2147483648").has_value());
  EXPECT_FALSE(parse_number<int>("-2147483649").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(parse_number<double>("1e400").has_value());
  EXPECT_FALSE(parse_number<double>("inf").has_value());
  EXPECT_FALSE(parse_number<double>("nan").has_value());
}

TEST(Flags, DefaultsHoldWhenNothingIsGiven) {
  Table t;
  EXPECT_EQ(run(t.flags, {}).rc, std::nullopt);
  EXPECT_EQ(t.count, 3);
  EXPECT_EQ(t.out, ".");
  EXPECT_FALSE(t.port.has_value());
  EXPECT_FALSE(t.spec.has_value());
  EXPECT_EQ(t.shape, Shape::kRing);
  EXPECT_FALSE(t.quiet);
}

TEST(Flags, StoresEveryKind) {
  Table t;
  const Outcome o = run(t.flags, {"--count", "7", "--loss", "0.5", "--seed",
                                  "0", "--out", "/x", "--port", "0", "--spec",
                                  "s.json", "--shape", "line", "--quiet", "a",
                                  "b"});
  EXPECT_EQ(o.rc, std::nullopt) << o.err;
  EXPECT_EQ(t.count, 7);
  EXPECT_EQ(t.loss, 0.5);
  EXPECT_EQ(t.seed, 0u);
  EXPECT_EQ(t.out, "/x");
  EXPECT_EQ(t.port, 0);
  EXPECT_EQ(t.spec, "s.json");
  EXPECT_EQ(t.shape, Shape::kLine);
  EXPECT_TRUE(t.quiet);
  EXPECT_EQ(t.paths, (std::vector<std::string>{"a", "b"}));
}

TEST(Flags, RepeatedFlagLastWins) {
  Table t;
  EXPECT_EQ(run(t.flags, {"--count", "2", "--count", "9"}).rc, std::nullopt);
  EXPECT_EQ(t.count, 9);
}

TEST(Flags, MalformedValueExits2NamingTheFlag) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--count", "2x"},
                                             {"--loss", "0.x"},
                                             {"--seed", "-1"},
                                             {"--count", "99999999999"},
                                             {"--shape", "star"}}) {
    Table t;
    const Outcome o = run(t.flags, args);
    EXPECT_EQ(o.rc, 2) << args[0];
    EXPECT_NE(o.err.find("tool: " + args[0] + ": '" + args[1] + "'"),
              std::string::npos)
        << o.err;
    EXPECT_TRUE(o.out.empty());
  }
}

TEST(Flags, BoundsAreEnforced) {
  {
    Table t;
    const Outcome o = run(t.flags, {"--count", "0"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_NE(o.err.find("--count: must be >= 1, got 0"), std::string::npos)
        << o.err;
  }
  {
    Table t;
    const Outcome o = run(t.flags, {"--loss", "1"});  // upper bound open
    EXPECT_EQ(o.rc, 2);
    EXPECT_NE(o.err.find("must be in [0, 1), got 1"), std::string::npos)
        << o.err;
  }
  {
    Table t;
    EXPECT_EQ(run(t.flags, {"--loss", "-0.1"}).rc, 2);
    EXPECT_EQ(run(t.flags, {"--port", "65536"}).rc, 2);
    EXPECT_EQ(run(t.flags, {"--port", "-2"}).rc, 2);
    EXPECT_EQ(t.loss, 0.0);
    EXPECT_FALSE(t.port.has_value());
  }
  {
    Table t;
    EXPECT_EQ(run(t.flags, {"--port", "65535", "--loss", "0"}).rc,
              std::nullopt);
    EXPECT_EQ(t.port, 65535);
  }
}

TEST(Flags, MissingValueExits2) {
  Table t;
  const Outcome o = run(t.flags, {"--quiet", "--shape"});
  EXPECT_EQ(o.rc, 2);
  EXPECT_NE(o.err.find("--shape needs a value S"), std::string::npos) << o.err;
}

TEST(Flags, UnknownFlagAndExtraPositionalExit2) {
  {
    Table t;
    const Outcome o = run(t.flags, {"--cout", "3"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_NE(o.err.find("unknown flag --cout"), std::string::npos) << o.err;
  }
  {
    Table t;
    const Outcome o = run(t.flags, {"a", "b", "c"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_NE(o.err.find("unexpected argument 'c'"), std::string::npos);
  }
  {
    Flags none("bare", "no positionals");
    EXPECT_EQ(run(none, {"x"}).rc, 2);
  }
}

TEST(Flags, HelpListsEveryEntryAndExits0) {
  for (const char* help : {"--help", "-h"}) {
    Table t;
    const Outcome o = run(t.flags, {"--count", "5", help, "--bogus"});
    EXPECT_EQ(o.rc, 0);
    EXPECT_TRUE(o.err.empty());
    EXPECT_EQ(o.out.rfind("tool — a test tool\n", 0), 0u) << o.out;
    for (const char* entry :
         {"PATH", "group:", "--count N", "--loss P", "--seed N", "--out DIR",
          "--port P", "--spec F", "--shape S", "--quiet", "--help",
          "exit status: 0 ok"}) {
      EXPECT_NE(o.out.find(entry), std::string::npos) << entry;
    }
    // Defaults come from the destinations as declared, bounds from the
    // table; an earlier flag on the same command line changes neither.
    EXPECT_NE(o.out.find("how many (>= 1, default 3)"), std::string::npos)
        << o.out;
    EXPECT_NE(o.out.find("(in [0, 1), default 0)"), std::string::npos);
    EXPECT_NE(o.out.find("(in [-1, 65535])"), std::string::npos);
    EXPECT_NE(o.out.find("shape (line|ring, default ring)"),
              std::string::npos);
    EXPECT_NE(o.out.find("output directory (default .)"), std::string::npos);
  }
}

TEST(Flags, HelpWrapsLongTextWithinEightyColumns) {
  std::string text;
  for (int i = 0; i < 40; ++i) text += "word ";
  bool flag = false;
  Flags flags("tool", "wrap");
  flags.add("--a-rather-long-flag-name", &flag, text);
  std::ostringstream out;
  flags.print_help(out);
  std::istringstream lines(out.str());
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 79u) << line;
    ++rows;
  }
  EXPECT_GT(rows, 4);
}

}  // namespace
}  // namespace rbcast::cli
