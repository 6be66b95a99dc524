// Tests for the command-line module shared by every lambmesh binary: the
// table-driven parser, its typed getters, the usage text, and the
// process flags.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/cli_args.hpp"
#include "support/parallel.hpp"

namespace lamb {
namespace {

using io::ArgError;
using io::CliArgs;

constexpr unsigned kSolve = 1, kRun = 2;

constexpr io::Command kCommands[] = {{"solve", "solve it"},
                                     {"run", "run it"}};

constexpr io::Flag kFlags[] = {
    {"geometry", "WxH..", io::kAllCommands, "mesh geometry"},
    {"random-faults", "N", io::kAllCommands, "random node faults"},
    {"seed", "S", io::kAllCommands, "master seed"},
    {"rate", "R", io::kAllCommands, "a real number"},
    {"output", "FILE", kSolve, "where to write"},
    {"trials", "N", kRun, "trial count"},
    {"verbose", "", io::kAllCommands, "chatty"},
    {"", "[INPUT]", kRun, "optional input file"},
};

constexpr io::CliSpec kSpec{kCommands, kFlags};

// A binary without commands and one required positional.
constexpr io::Flag kFileFlags[] = {{"", "FILE", io::kAllCommands, "input"},
                                   {"tail", "N", io::kAllCommands, "last N"}};
constexpr io::CliSpec kFileSpec{{}, kFileFlags};

// A binary that honours --telemetry.
constexpr io::Flag kTelemetryFlags[] = {io::kTelemetryFlag};
constexpr io::CliSpec kTelemetrySpec{{}, kTelemetryFlags};

CliArgs parse(const std::vector<std::string>& tokens,
              const io::CliSpec& spec = kSpec) {
  return CliArgs::parse(tokens, spec);
}

// The ArgError message parse() throws for `tokens`.
std::string parse_error(const std::vector<std::string>& tokens,
                        const io::CliSpec& spec = kSpec) {
  try {
    CliArgs::parse(tokens, spec);
  } catch (const ArgError& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(CliArgs, ParsesCommandAndBothSpellings) {
  const CliArgs args =
      parse({"solve", "--geometry", "32x32", "--random-faults=31"});
  EXPECT_EQ(args.command(), "solve");
  EXPECT_TRUE(args.has("geometry"));
  EXPECT_EQ(args.get("geometry"), "32x32");
  EXPECT_EQ(args.get_long("random-faults", 0), 31);
  EXPECT_FALSE(args.has("output"));
  // `=` splits at the first one; the value may contain more.
  EXPECT_EQ(parse({"solve", "--output=a=b"}).get("output"), "a=b");
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const CliArgs args = parse({"solve"});
  EXPECT_EQ(args.get("geometry", "4x4"), "4x4");
  EXPECT_EQ(args.get_long("seed", 2), 2);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.5), 0.5);
}

TEST(CliArgs, NumericParsingTakesNegativeValues) {
  const CliArgs args = parse({"solve", "--seed", "-7", "--rate", "2.5"});
  EXPECT_EQ(args.get_long("seed", 0), -7);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 2.5);
}

TEST(CliArgs, RejectsBadNumbers) {
  const CliArgs args = parse({"solve", "--seed", "12abc"});
  EXPECT_THROW(args.get_long("seed", 0), ArgError);
  EXPECT_THROW(args.get_double("seed", 0), ArgError);
}

TEST(CliArgs, RejectsMissingOrUnknownCommand) {
  EXPECT_EQ(parse_error({}), "missing command");
  EXPECT_EQ(parse_error({"--geometry", "4x4"}),
            "expected a command before options");
  EXPECT_EQ(parse_error({"frob"}), "unknown command frob");
}

TEST(CliArgs, UnknownOptionsAndScope) {
  EXPECT_EQ(parse_error({"solve", "--ouput", "f.lamb"}),
            "unknown option --ouput");
  EXPECT_EQ(parse_error({"solve", "--ouput=f.lamb"}),
            "unknown option --ouput");
  // Declared, but for the other command only.
  EXPECT_EQ(parse_error({"run", "--output", "f.lamb"}),
            "unknown option --output for run");
  EXPECT_EQ(parse_error({"solve", "--trials", "3"}),
            "unknown option --trials for solve");
  EXPECT_EQ(parse({"run", "--trials", "3"}).get_long("trials", 0), 3);
  EXPECT_EQ(parse_error({"solve", "--", "x"}), "bare '--' is not an option");
}

TEST(CliArgs, MissingValueMessageComesFromTheTable) {
  EXPECT_EQ(parse_error({"solve", "--output"}), "--output needs a FILE");
  EXPECT_EQ(parse_error({"solve", "--output="}), "--output needs a FILE");
  // The next flag is not a value.
  EXPECT_EQ(parse_error({"solve", "--geometry", "--verbose"}),
            "--geometry needs a WxH..");
  EXPECT_EQ(parse_error({"solve", "--threads"}), "--threads needs a N");
  EXPECT_EQ(parse_error({"solve", "--serve"}), "--serve needs a SPEC");
  EXPECT_EQ(parse_error({"solve", "--metrics"}), "--metrics needs a DEST");
}

TEST(CliArgs, LastDuplicateWins) {
  const CliArgs args = parse({"solve", "--seed", "1", "--seed=2"});
  EXPECT_EQ(args.get_long("seed", 0), 2);
}

TEST(CliArgs, BooleanFlagsConsumeNoValue) {
  const CliArgs args =
      parse({"solve", "--verbose", "--seed", "3", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_long("seed", 0), 3);
  // A boolean ends the line just as well.
  EXPECT_TRUE(parse({"solve", "--seed", "3", "--verbose"}).has("verbose"));
  EXPECT_EQ(parse_error({"solve", "--verbose=yes"}),
            "--verbose takes no value");
  // A boolean followed by a word does not swallow it as a value.
  EXPECT_EQ(parse_error({"solve", "--verbose", "yes"}),
            "unexpected argument 'yes'");
}

TEST(CliArgs, PositionalsOnlyWhereDeclared) {
  EXPECT_EQ(parse_error({"solve", "positional"}),
            "unexpected argument 'positional'");
  const CliArgs run = parse({"run", "in.lamb", "--trials", "2"});
  ASSERT_EQ(run.positionals().size(), 1u);
  EXPECT_EQ(run.positionals()[0], "in.lamb");
  EXPECT_TRUE(parse({"run"}).positionals().empty());  // [INPUT] optional
  EXPECT_EQ(parse_error({"run", "a", "b"}), "unexpected argument 'b'");

  const CliArgs file = parse({"--tail", "4", "f.ring"}, kFileSpec);
  EXPECT_EQ(file.command(), "");
  EXPECT_EQ(file.positionals()[0], "f.ring");
  EXPECT_EQ(parse_error({"--tail", "4"}, kFileSpec), "missing FILE");
  // An unknown flag is reported before the missing positional.
  EXPECT_EQ(parse_error({"--no-such-flag"}, kFileSpec),
            "unknown option --no-such-flag");
}

TEST(CliArgs, IntegerOverflowIsRejectedNotWrapped) {
  // 999999999999 fits a 64-bit long but not an int: get_int must refuse
  // it loudly instead of letting a static_cast wrap it to nonsense.
  const CliArgs args = parse({"solve", "--seed", "999999999999"});
  EXPECT_EQ(args.get_long("seed", 0), 999999999999L);
  try {
    args.get_int("seed", 0);
    FAIL() << "expected ArgError";
  } catch (const ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  // Beyond 64 bits even get_long refuses.
  const CliArgs huge = parse({"solve", "--seed", "99999999999999999999999"});
  EXPECT_THROW(huge.get_long("seed", 0), ArgError);
}

TEST(CliArgs, IntegerMinimumBound) {
  const CliArgs args = parse({"--tail", "-1", "f"}, kFileSpec);
  try {
    args.get_long("tail", 0, 1);
    FAIL() << "expected ArgError";
  } catch (const ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range [1, "),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse({"--tail", "1", "f"}, kFileSpec).get_long("tail", 0, 1), 1);
}

TEST(CliArgs, TrailingGarbageIsRejected) {
  const CliArgs args = parse({"run", "--trials", "10x"});
  try {
    args.get_long("trials", 0);
    FAIL() << "expected ArgError";
  } catch (const ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("expects an integer"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(args.get_int("trials", 0), ArgError);
}

TEST(CliArgs, UsageTextComesFromTheTable) {
  const std::string text = io::usage_text("prog", kSpec);
  EXPECT_EQ(text.rfind("usage: prog solve|run [options] [INPUT]\n", 0), 0u)
      << text;
  EXPECT_NE(text.find("  solve    solve it\n"), std::string::npos) << text;
  EXPECT_NE(text.find("  --output FILE         where to write [solve]\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  --verbose             chatty\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("  [INPUT]               optional input file [run]\n"),
            std::string::npos)
      << text;
  for (const io::Flag& flag : io::kProcessFlags) {
    EXPECT_NE(text.find(std::string("  --") + flag.name + " " + flag.arg),
              std::string::npos)
        << flag.name;
  }
}

TEST(ProcessFlags, ThreadsBothSpellingsConfigurePool) {
  ASSERT_TRUE(io::apply_process_flags(parse({"solve", "--threads", "3"})));
  EXPECT_EQ(par::threads(), 3);
  ASSERT_TRUE(io::apply_process_flags(parse({"run", "--threads=2"})));
  EXPECT_EQ(par::threads(), 2);
  ASSERT_TRUE(io::apply_process_flags(parse({"solve", "--seed", "7"})));
  EXPECT_EQ(par::threads(), 2);  // untouched when the flag is absent
  par::set_threads(0);
}

TEST(ProcessFlags, RejectsMalformedThreadCounts) {
  const auto apply_error = [](const std::vector<std::string>& tokens) {
    try {
      io::apply_process_flags(parse(tokens));
    } catch (const ArgError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  EXPECT_NE(apply_error({"solve", "--threads", "x"}).find("expects an integer"),
            std::string::npos);
  EXPECT_NE(apply_error({"solve", "--threads=-2"}).find("out of range"),
            std::string::npos);
  EXPECT_NE(
      apply_error({"solve", "--threads", "999999999999"}).find("out of range"),
      std::string::npos);
}

TEST(ProcessFlags, DumpDestinationsFollowTheOneGrammar) {
  const auto apply_error = [&](const std::vector<std::string>& tokens) {
    try {
      io::apply_process_flags(parse(tokens, kTelemetrySpec));
    } catch (const ArgError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  EXPECT_EQ(apply_error({"--metrics=jsn:x"}),
            "--metrics: bad destination 'jsn:x' "
            "(expected stderr | json:PATH | csv:PATH)");
  EXPECT_EQ(apply_error({"--telemetry=json:x"}),
            "--telemetry: bad destination 'json:x' (expected csv:PATH)");
  EXPECT_EQ(apply_error({"--telemetry", "x"}),
            "--telemetry: bad destination 'x' (expected csv:PATH)");
}

TEST(ProcessFlagsDeathTest, ParseCliExitsTwoWithTheError) {
  const char* unknown[] = {"prog", "solve", "--no-such-flag"};
  EXPECT_EXIT(io::parse_cli(3, unknown, kSpec), ::testing::ExitedWithCode(2),
              "^error: unknown option --no-such-flag\n$");
  const char* missing[] = {"prog", "solve", "--threads"};
  EXPECT_EXIT(io::parse_cli(3, missing, kSpec), ::testing::ExitedWithCode(2),
              "^error: --threads needs a N\n$");
  const char* bad_count[] = {"prog", "solve", "--threads=-2"};
  EXPECT_EXIT(io::parse_cli(3, bad_count, kSpec),
              ::testing::ExitedWithCode(2), "out of range");
  const char* bad_dump[] = {"prog", "solve", "--metrics=jsn:x"};
  EXPECT_EXIT(io::parse_cli(3, bad_dump, kSpec), ::testing::ExitedWithCode(2),
              "^error: --metrics: bad destination 'jsn:x' \\(expected "
              "stderr [|] json:PATH [|] csv:PATH\\)\n$");
  // No arguments at all: the error and then the usage text.
  const char* bare[] = {"/path/to/prog"};
  EXPECT_EXIT(io::parse_cli(1, bare, kSpec), ::testing::ExitedWithCode(2),
              "error: missing command\n\nusage: prog solve[|]run");
}

}  // namespace
}  // namespace lamb
