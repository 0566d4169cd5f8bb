#include "common/config.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace memgoal::common {
namespace {

TEST(ConfigTest, ParseArgs) {
  const char* argv[] = {"prog", "nodes=5", "skew=0.75", "name=base"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(4, argv));
  EXPECT_EQ(config.GetInt("nodes", 0), 5);
  EXPECT_DOUBLE_EQ(config.GetDouble("skew", 0.0), 0.75);
  EXPECT_EQ(config.GetString("name", ""), "base");
}

TEST(ConfigTest, MalformedArgRejected) {
  const char* argv[] = {"prog", "no_equals_sign"};
  Config config;
  EXPECT_FALSE(config.ParseArgs(2, argv));
  EXPECT_FALSE(config.error().empty());
}

TEST(ConfigTest, GnuStyleFlagsAccepted) {
  // Bench binaries take GNU-style switches: --key=value is stripped of its
  // dashes, and a bare --flag stores "1" so GetBool sees it as set.
  const char* argv[] = {"prog", "--threads=4", "--quick", "intervals=9"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(4, argv));
  EXPECT_EQ(config.GetInt("threads", 0), 4);
  EXPECT_TRUE(config.GetBool("quick", false));
  EXPECT_EQ(config.GetInt("intervals", 0), 9);
}

TEST(ConfigTest, BareDashesRejected) {
  const char* argv[] = {"prog", "--"};
  Config config;
  EXPECT_FALSE(config.ParseArgs(2, argv));
  EXPECT_FALSE(config.error().empty());
}

TEST(ConfigTest, FallbacksUsedWhenAbsent) {
  Config config;
  EXPECT_EQ(config.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(config.GetDouble("missing", 1.5), 1.5);
  EXPECT_EQ(config.GetString("missing", "x"), "x");
  EXPECT_TRUE(config.GetBool("missing", true));
}

TEST(ConfigTest, ParseTextWithCommentsAndBlanks) {
  Config config;
  ASSERT_TRUE(config.ParseText(
      "# a comment\n"
      "nodes = 3\n"
      "\n"
      "cache_bytes=2097152   # trailing comment\n"));
  EXPECT_EQ(config.GetInt("nodes", 0), 3);
  EXPECT_EQ(config.GetInt("cache_bytes", 0), 2097152);
}

TEST(ConfigTest, ParseFileReadsItAsText) {
  const std::string path = testing::TempDir() + "config_parse_file.conf";
  {
    std::ofstream file(path);
    file << "# a comment\nnodes = 4\n";
  }
  Config config;
  ASSERT_TRUE(config.ParseFile(path)) << config.error();
  EXPECT_EQ(config.GetInt("nodes", 0), 4);
  std::remove(path.c_str());
  Config missing;
  EXPECT_FALSE(missing.ParseFile(path));
  EXPECT_EQ(missing.error(), "cannot open " + path);
}

TEST(ConfigTest, BoolSpellings) {
  Config config;
  config.Set("a", "true");
  config.Set("b", "0");
  config.Set("c", "yes");
  config.Set("d", "off");
  EXPECT_TRUE(config.GetBool("a", false));
  EXPECT_FALSE(config.GetBool("b", true));
  EXPECT_TRUE(config.GetBool("c", false));
  EXPECT_FALSE(config.GetBool("d", true));
}

TEST(ConfigTest, UnusedKeysReported) {
  Config config;
  config.Set("used", "1");
  config.Set("unused", "2");
  config.GetInt("used", 0);
  const auto unused = config.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

TEST(ConfigTest, LastSetWins) {
  Config config;
  config.Set("k", "1");
  config.Set("k", "2");
  EXPECT_EQ(config.GetInt("k", 0), 2);
}

TEST(ConfigTest, RejectUnknownFlagsPassesWhenAllFlagsConsumed) {
  const char* argv[] = {"prog", "--threads=4", "--quick", "intervals=9"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(4, argv));
  config.GetInt("threads", 0);
  config.GetBool("quick", false);
  // `intervals` was plain key=value, not a --flag, so it is exempt even
  // though nothing read it: scenario files legitimately carry extra keys.
  EXPECT_TRUE(config.RejectUnknownFlags());
}

TEST(ConfigTest, RejectUnknownFlagsFailsOnUnconsumedFlag) {
  const char* argv[] = {"prog", "--bogus=1"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(2, argv));
  config.GetInt("threads", 0);
  EXPECT_FALSE(config.RejectUnknownFlags());
  EXPECT_NE(config.error().find("--bogus"), std::string::npos);
}

TEST(ConfigTest, RejectUnknownFlagsSuggestsNearMiss) {
  // "--thread" is one edit from the queried "threads" key; the error must
  // offer it back in GNU spelling (underscores rendered as dashes).
  const char* argv[] = {"prog", "--thread=4"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(2, argv));
  config.GetInt("threads", 0);
  config.GetString("bench_json", "");
  EXPECT_FALSE(config.RejectUnknownFlags());
  EXPECT_NE(config.error().find("did you mean --threads?"),
            std::string::npos);

  const char* argv2[] = {"prog", "--bench-jsn=out"};
  Config config2;
  ASSERT_TRUE(config2.ParseArgs(2, argv2));
  config2.GetString("bench_json", "");
  EXPECT_FALSE(config2.RejectUnknownFlags());
  EXPECT_NE(config2.error().find("did you mean --bench-json?"),
            std::string::npos);
}

TEST(ConfigTest, NearestSuggestionSharedHelper) {
  // The helper behind the flag suggestions is reusable for enum-valued
  // scenario keys (queue=, corrupt=, scrub=): within edit distance 2 it
  // offers the nearest accepted value, beyond that nothing.
  const std::vector<std::string> accepted = {"calendar", "heap"};
  EXPECT_EQ(NearestSuggestion("calender", accepted), "calendar");
  EXPECT_EQ(NearestSuggestion("heep", accepted), "heap");
  EXPECT_EQ(NearestSuggestion("fibonacci", accepted), "");
  EXPECT_EQ(NearestSuggestion("frmaes", {"off", "disk", "frames", "all"}),
            "frames");
}

TEST(ConfigTest, BadValueYieldsFallbackAndFailsTheFlagCheck) {
  // A value a typed getter cannot convert is not an abort: the getter
  // returns its fallback and the flag check fails with the first bad
  // value, before it looks for unknown flags.
  const char* argv[] = {"prog", "intervals=abc", "--seeds=x", "--quick=maybe",
                        "--bogus=1"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(5, argv));
  EXPECT_EQ(config.GetInt("intervals", 24), 24);
  EXPECT_DOUBLE_EQ(config.GetDouble("seeds", 1.5), 1.5);
  EXPECT_TRUE(config.GetBool("quick", true));
  EXPECT_FALSE(config.RejectUnknownFlags());
  EXPECT_EQ(config.error(), "intervals must be an integer, got abc");
}

TEST(ConfigTest, EachGetterNamesItsKind) {
  const char* argv[] = {"prog", "--skew=high", "--quick=maybe", "--n=1.5"};
  const struct {
    int arg;
    const char* message;
  } cases[] = {
      {1, "skew must be a number, got high"},
      {2, "quick must be 1/0, true/false, yes/no or on/off, got maybe"},
      {3, "n must be an integer, got 1.5"},
  };
  for (const auto& c : cases) {
    const char* args[] = {argv[0], argv[c.arg]};
    Config config;
    ASSERT_TRUE(config.ParseArgs(2, args));
    config.GetDouble("skew", 0.0);
    config.GetBool("quick", false);
    config.GetInt("n", 0);
    EXPECT_FALSE(config.RejectUnknownFlags());
    EXPECT_EQ(config.error(), c.message);
  }
}

// The message a ranged getter records for the argument `arg` (a value of
// key "k"), after checking that the getter returned its fallback.
std::string IntRangeError(const char* arg, IntRange range) {
  const char* argv[] = {"prog", arg};
  Config config;
  EXPECT_TRUE(config.ParseArgs(2, argv));
  EXPECT_EQ(config.GetInt("k", 5, range), 5) << arg;
  return config.bad_value();
}

std::string NumberRangeError(const char* arg, NumberRange range) {
  const char* argv[] = {"prog", arg};
  Config config;
  EXPECT_TRUE(config.ParseArgs(2, argv));
  EXPECT_DOUBLE_EQ(config.GetDouble("k", 5.0, range), 5.0) << arg;
  return config.bad_value();
}

TEST(ConfigTest, ValueOutsideTheRangeYieldsFallbackAndNamesTheRange) {
  // Recorded like a value that does not convert, which names the range too.
  EXPECT_EQ(IntRangeError("k=-1", {0}), "k must be >= 0, got -1");
  EXPECT_EQ(IntRangeError("k=33", {1, 32}), "k must be in 1..32, got 33");
  EXPECT_EQ(IntRangeError("k=x", {1, 32}), "k must be in 1..32, got x");
  EXPECT_EQ(NumberRangeError("k=-2.5", NumberRange::AtLeast(0.0)),
            "k must be finite and >= 0, got -2.5");
  EXPECT_EQ(NumberRangeError("k=0", NumberRange::Above(0.0)),
            "k must be finite and > 0, got 0");
  EXPECT_EQ(NumberRangeError("k=inf", NumberRange::Above(0.0)),
            "k must be finite and > 0, got inf");
  EXPECT_EQ(NumberRangeError("k=nan", {0.0, 1.0}),
            "k must be in [0, 1], got nan");

  // The edges load; the first bad value wins and fails the flag check.
  const char* argv[] = {"prog", "a=0", "b=32", "c=1", "d=-7", "e=-8"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(6, argv));
  EXPECT_EQ(config.GetInt("a", 5, {0}), 0);
  EXPECT_EQ(config.GetInt("b", 5, {1, 32}), 32);
  EXPECT_DOUBLE_EQ(config.GetDouble("c", 5.0, {0.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(config.GetDouble("a", 5.0, NumberRange::AtLeast(0.0)),
                   0.0);
  EXPECT_EQ(config.bad_value(), "");
  config.GetInt("d", 0, {0});
  config.GetInt("e", 0, {0});
  EXPECT_FALSE(config.RejectUnknownFlags());
  EXPECT_EQ(config.error(), "d must be >= 0, got -7");
}

TEST(ConfigTest, RejectUnknownFlagsOmitsFarFetchedSuggestions) {
  const char* argv[] = {"prog", "--zzzzzz=1"};
  Config config;
  ASSERT_TRUE(config.ParseArgs(2, argv));
  config.GetInt("threads", 0);
  EXPECT_FALSE(config.RejectUnknownFlags());
  EXPECT_EQ(config.error().find("did you mean"), std::string::npos);
}

}  // namespace
}  // namespace memgoal::common
