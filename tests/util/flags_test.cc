#include "util/flags.h"

#include <gtest/gtest.h>

namespace oca {
namespace {

FlagParser ParseOk(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  return parser;
}

TEST(FlagParserTest, EqualsForm) {
  auto p = ParseOk({"--nodes=100", "--mu=0.3", "--name=lfr"});
  EXPECT_EQ(p.GetInt("nodes", 0).value(), 100);
  EXPECT_DOUBLE_EQ(p.GetDouble("mu", 0).value(), 0.3);
  EXPECT_EQ(p.GetString("name", ""), "lfr");
}

TEST(FlagParserTest, SpaceForm) {
  auto p = ParseOk({"--nodes", "250", "--label", "abc"});
  EXPECT_EQ(p.GetInt("nodes", 0).value(), 250);
  EXPECT_EQ(p.GetString("label", ""), "abc");
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  auto p = ParseOk({"--verbose", "--threads=4"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_TRUE(p.Has("verbose"));
  EXPECT_FALSE(p.GetBool("quiet", false));
}

TEST(FlagParserTest, TrailingBareFlag) {
  auto p = ParseOk({"--a=1", "--flag"});
  EXPECT_TRUE(p.GetBool("flag", false));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  auto p = ParseOk({});
  EXPECT_EQ(p.GetInt("missing", 77).value(), 77);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 1.5).value(), 1.5);
  EXPECT_EQ(p.GetString("missing", "dflt"), "dflt");
  EXPECT_TRUE(p.GetBool("missing", true));
}

TEST(FlagParserTest, PositionalArguments) {
  auto p = ParseOk({"input.txt", "--k=3", "output.txt"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.txt");
  EXPECT_EQ(p.positional()[1], "output.txt");
  EXPECT_EQ(p.GetInt("k", 0).value(), 3);
}

TEST(FlagParserTest, MalformedIntErrors) {
  auto p = ParseOk({"--nodes=abc"});
  auto r = p.GetInt("nodes", 0);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(FlagParserTest, MalformedDoubleErrors) {
  auto p = ParseOk({"--mu=0.3x"});
  EXPECT_FALSE(p.GetDouble("mu", 0).ok());
}

TEST(FlagParserTest, NegativeNumbers) {
  auto p = ParseOk({"--offset=-5", "--scale=-2.5"});
  EXPECT_EQ(p.GetInt("offset", 0).value(), -5);
  EXPECT_DOUBLE_EQ(p.GetDouble("scale", 0).value(), -2.5);
}

TEST(FlagParserTest, BoolSpellings) {
  auto p = ParseOk({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_TRUE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
  EXPECT_FALSE(p.GetBool("e", true));
}

TEST(FlagParserTest, BareDoubleDashRejected) {
  const char* argv[] = {"prog", "--"};
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(2, argv).IsInvalidArgument());
}

TEST(FlagParserTest, LastOccurrenceWins) {
  auto p = ParseOk({"--k=1", "--k=2"});
  EXPECT_EQ(p.GetInt("k", 0).value(), 2);
}

TEST(FlagParserTest, CheckAllReadNamesFlagsNoGetterAskedFor) {
  auto p = ParseOk({"--nodes=5", "--bogus=1", "--verbose", "--zz", "x"});
  EXPECT_EQ(p.GetInt("nodes", 0).value(), 5);
  EXPECT_TRUE(p.Has("verbose"));
  Status status = p.CheckAllRead();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "unknown flag --bogus, --zz");
  // Any getter or Has() on a name marks it read.
  EXPECT_EQ(p.GetInt("bogus", 0).value(), 1);
  EXPECT_EQ(p.GetString("zz", ""), "x");
  EXPECT_TRUE(p.CheckAllRead().ok());
}

TEST(FlagParserTest, CheckAllReadIgnoresUnsetKnownFlags) {
  auto p = ParseOk({"--k=3", "pos"});
  EXPECT_EQ(p.GetInt("k", 0).value(), 3);
  EXPECT_EQ(p.GetDouble("alpha", 1.0).value(), 1.0);  // absent: fine
  EXPECT_TRUE(p.CheckAllRead().ok());
}

}  // namespace
}  // namespace oca
