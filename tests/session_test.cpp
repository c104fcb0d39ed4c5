// The run session's flag parser: both spellings, strictness (unknown
// and leftover arguments, repeats, missing values), range edges and the
// shared flag set. The process-level behaviour (one diagnostic, exit 2,
// no file) is covered by tests/cli_bad_flags.cmake.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/session.hpp"

namespace {

using namespace satnet;

/// Parses `args` (argv[0] is supplied) against `flags`; returns the
/// diagnostic, "" on success.
std::string parse(std::vector<std::string> args, const std::vector<io::Flag>& flags,
                  io::Args* out, const std::vector<std::string>& positionals = {}) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return io::parse_args(static_cast<int>(argv.size()), argv.data(), 1, flags, positionals,
                        out);
}

const std::vector<io::Flag>& flags() {
  static const std::vector<io::Flag> table = {
      {"--scale", "S", io::real_in(0, 1, /*lo_open=*/true), "0.5", "volume"},
      {"--threads", "N", io::integer_in(0, 1024), "0", "workers"},
      {"--model", "M", io::one_of({"walker", "sgp4"}), "", "model"},
      {"--out", "FILE", io::path(), "", "output"},
      {"--degrade", "", {}, "", "switch"},
  };
  return table;
}

TEST(SessionFlags, BothSpellingsAndDefaults) {
  io::Args args;
  ASSERT_EQ(parse({"--threads", "4", "--scale=0.25", "--degrade"}, flags(), &args), "");
  EXPECT_EQ(args.integer("--threads"), 4u);
  EXPECT_DOUBLE_EQ(args.real("--scale"), 0.25);
  EXPECT_TRUE(args.has("--degrade"));
  EXPECT_FALSE(args.has("--out"));
  EXPECT_EQ(args.str("--out"), "");

  ASSERT_EQ(parse({}, flags(), &args), "");
  EXPECT_FALSE(args.has("--scale"));
  EXPECT_DOUBLE_EQ(args.real("--scale"), 0.5);
  EXPECT_EQ(args.integer("--threads"), 0u);
}

TEST(SessionFlags, ValueMayLookLikeAFlagOrBeNegative) {
  io::Args args;
  const std::vector<io::Flag> table = {{"--t", "SEC", io::finite_real(), "0", "time"}};
  ASSERT_EQ(parse({"--t", "-5.5"}, table, &args), "");
  EXPECT_DOUBLE_EQ(args.real("--t"), -5.5);
}

TEST(SessionFlags, MissingValueNamesTheFlag) {
  io::Args args;
  EXPECT_EQ(parse({"--threads"}, flags(), &args),
            "--threads is missing its value (an integer in 0..1024)");
  EXPECT_EQ(parse({"--out="}, flags(), &args), "--out expects a path, got ''");
}

TEST(SessionFlags, RepeatIsRejectedInEitherSpelling) {
  io::Args args;
  EXPECT_EQ(parse({"--threads", "2", "--threads=2"}, flags(), &args),
            "--threads given twice");
  EXPECT_EQ(parse({"--degrade", "--degrade"}, flags(), &args), "--degrade given twice");
}

TEST(SessionFlags, RangeEdges) {
  io::Args args;
  EXPECT_EQ(parse({"--threads", "1024"}, flags(), &args), "");
  EXPECT_EQ(parse({"--threads", "1025"}, flags(), &args),
            "--threads expects an integer in 0..1024, got '1025'");
  EXPECT_NE(parse({"--threads", "-1"}, flags(), &args), "");
  EXPECT_NE(parse({"--threads", "2x"}, flags(), &args), "");
  EXPECT_NE(parse({"--threads", "99999999999999999999999"}, flags(), &args), "");
  EXPECT_EQ(parse({"--scale", "1"}, flags(), &args), "");
  EXPECT_EQ(parse({"--scale", "0"}, flags(), &args),
            "--scale expects a number in (0, 1], got '0'");
  EXPECT_NE(parse({"--scale", "1.0000001"}, flags(), &args), "");
  EXPECT_NE(parse({"--scale", "nan"}, flags(), &args), "");
  EXPECT_NE(parse({"--scale", "abc"}, flags(), &args), "");
  EXPECT_NE(parse({"--scale", " 0.5"}, flags(), &args), "");
  EXPECT_EQ(parse({"--model", "sgp4"}, flags(), &args), "");
  EXPECT_EQ(parse({"--model", "foo"}, flags(), &args),
            "--model expects one of walker|sgp4, got 'foo'");
}

TEST(SessionFlags, UnknownAndLeftoverArguments) {
  io::Args args;
  const std::string names = "(flags: --scale --threads --model --out --degrade)";
  EXPECT_EQ(parse({"--thread", "2"}, flags(), &args), "unknown flag '--thread' " + names);
  EXPECT_EQ(parse({"--help"}, flags(), &args), "unknown flag '--help' " + names);
  EXPECT_EQ(parse({"-x"}, flags(), &args), "unknown flag '-x' " + names);
  EXPECT_EQ(parse({"stray"}, flags(), &args), "unexpected argument 'stray' " + names);
  EXPECT_EQ(parse({"--degrade=1"}, flags(), &args), "--degrade takes no value");
}

TEST(SessionFlags, Positionals) {
  io::Args args;
  EXPECT_EQ(parse({}, flags(), &args, {"FILE"}), "missing FILE");
  ASSERT_EQ(parse({"cat.tle", "--threads", "1"}, flags(), &args, {"FILE"}), "");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "cat.tle");
  EXPECT_NE(parse({"a", "b"}, flags(), &args, {"FILE"}), "");
}

TEST(SessionFlags, SharedFlagBounds) {
  const std::vector<io::Flag>& shared = io::RunSession::shared_flags();
  io::Args args;
  EXPECT_EQ(parse({"--threads", "0", "--recorder-ring", "2", "--watchdog-ms", "60000",
                   "--watchdog-threshold-ms", "0.5", "--no-timeline"},
                  shared, &args),
            "");
  EXPECT_NE(parse({"--no-access-cache"}, shared, &args), "");
  EXPECT_NE(parse({"--timeline-in", "x"}, shared, &args), "");
  EXPECT_NE(parse({"--timeline-out", "x"}, shared, &args), "");
  EXPECT_NE(parse({"--threads", "100000"}, shared, &args), "");
  EXPECT_NE(parse({"--recorder-ring", "1"}, shared, &args), "");
  EXPECT_NE(parse({"--recorder-ring", "abc"}, shared, &args), "");
  EXPECT_NE(parse({"--watchdog-ms", "60001"}, shared, &args), "");
  EXPECT_NE(parse({"--watchdog-threshold-ms", "0"}, shared, &args), "");
  EXPECT_NE(parse({"--watchdog-threshold-ms", "inf"}, shared, &args), "");
}

TEST(SessionFlags, UsageIsBuiltFromTheTable) {
  EXPECT_EQ(io::flag_synopsis(flags()),
            "[--scale S] [--threads N] [--model M] [--out FILE] [--degrade]");
  const std::string help = io::flag_help(flags());
  EXPECT_NE(help.find("--scale S"), std::string::npos);
  EXPECT_NE(help.find("a number in (0, 1]; default 0.5"), std::string::npos);
  EXPECT_NE(help.find("one of walker|sgp4"), std::string::npos);
}

}  // namespace
