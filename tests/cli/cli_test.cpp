#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "test_util.hpp"

namespace mts::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir();
    osm_path_ = (dir_ / "city.osm").string();
  }

  int run(std::initializer_list<std::string> args) {
    out_.str("");
    err_.str("");
    return run_cli(std::vector<std::string>(args), out_, err_);
  }

  /// Generates a small city once for the commands that need one.
  void generate() {
    ASSERT_EQ(run({"generate", "--city", "chicago", "--scale", "0.15", "--seed", "5", "--out",
                   osm_path_}),
              0)
        << err_.str();
  }

  std::filesystem::path dir_;
  std::string osm_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsageAndFails) {
  EXPECT_EQ(run({}), 1);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("generate"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(run({"frobnicate"}), 1);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesOsmFile) {
  generate();
  EXPECT_TRUE(std::filesystem::exists(osm_path_));
  EXPECT_NE(out_.str().find("wrote"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsBadCity) {
  EXPECT_EQ(run({"generate", "--city", "atlantis", "--out", osm_path_}), 1);
  EXPECT_NE(err_.str().find("unknown city"), std::string::npos);
}

TEST_F(CliTest, GenerateRequiresOut) {
  EXPECT_EQ(run({"generate", "--city", "boston"}), 1);
  EXPECT_NE(err_.str().find("--out"), std::string::npos);
}

TEST_F(CliTest, InfoReportsMetricsAndPois) {
  generate();
  EXPECT_EQ(run({"info", "--osm", osm_path_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("Average node degree"), std::string::npos);
  EXPECT_NE(out_.str().find("Northwestern Memorial Hospital"), std::string::npos);
}

TEST_F(CliTest, InfoFailsOnMissingFile) {
  EXPECT_EQ(run({"info", "--osm", (dir_ / "nope.osm").string()}), 1);
}

TEST_F(CliTest, AttackEndToEndWithArtifacts) {
  generate();
  const std::string svg = (dir_ / "plan.svg").string();
  const std::string geojson = (dir_ / "plan.geojson").string();
  EXPECT_EQ(run({"attack", "--osm", osm_path_, "--rank", "12", "--seed", "3", "--algorithm",
                 "greedy-pathcover", "--weight", "time", "--cost", "width", "--svg", svg,
                 "--geojson", geojson}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("status: success"), std::string::npos);
  EXPECT_NE(out_.str().find("verified exclusive shortest: yes"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(svg));
  EXPECT_TRUE(std::filesystem::exists(geojson));
}

TEST_F(CliTest, AttackByHospitalName) {
  generate();
  EXPECT_EQ(run({"attack", "--osm", osm_path_, "--rank", "10", "--hospital",
                 "Rush University Medical Center"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("Rush University Medical Center"), std::string::npos);
}

TEST_F(CliTest, AttackUnknownHospitalFails) {
  generate();
  EXPECT_EQ(run({"attack", "--osm", osm_path_, "--hospital", "St. Nowhere"}), 1);
  EXPECT_NE(err_.str().find("not found"), std::string::npos);
}

TEST_F(CliTest, AttackRejectsBadAlgorithm) {
  generate();
  EXPECT_EQ(run({"attack", "--osm", osm_path_, "--algorithm", "magic"}), 1);
  EXPECT_NE(err_.str().find("unknown algorithm"), std::string::npos);
}

TEST_F(CliTest, IsolateReportsCut) {
  generate();
  EXPECT_EQ(run({"isolate", "--osm", osm_path_, "--radius", "250"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("block"), std::string::npos);
  EXPECT_NE(out_.str().find("cost"), std::string::npos);
}

TEST_F(CliTest, InterdictReportsDelayFactor) {
  generate();
  EXPECT_EQ(run({"interdict", "--osm", osm_path_, "--budget", "6"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("delay factor"), std::string::npos);
}

TEST_F(CliTest, DanglingFlagRejected) {
  EXPECT_EQ(run({"generate", "--city"}), 1);
  EXPECT_NE(err_.str().find("--flag value"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsNegativeSeed) {
  EXPECT_EQ(run({"generate", "--city", "chicago", "--seed", "-1", "--out", osm_path_}), 1);
  EXPECT_NE(err_.str().find("--seed"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsNonNumericSeed) {
  EXPECT_EQ(run({"generate", "--city", "chicago", "--seed", "7x", "--out", osm_path_}), 1);
  EXPECT_NE(err_.str().find("--seed expects an integer"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsNonNumericScale) {
  EXPECT_EQ(run({"generate", "--city", "chicago", "--scale", "big", "--out", osm_path_}), 1);
  EXPECT_NE(err_.str().find("--scale expects a number"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsNonPositiveScale) {
  EXPECT_EQ(run({"generate", "--city", "chicago", "--scale", "0", "--out", osm_path_}), 1);
  EXPECT_NE(err_.str().find("--scale"), std::string::npos);
}

TEST_F(CliTest, AttackRejectsZeroRank) {
  generate();
  EXPECT_EQ(run({"attack", "--osm", osm_path_, "--rank", "0"}), 1);
  EXPECT_NE(err_.str().find("--rank"), std::string::npos);
}

TEST_F(CliTest, AttackRejectsNonPositiveBudget) {
  generate();
  EXPECT_EQ(run({"attack", "--osm", osm_path_, "--budget", "0"}), 1);
  EXPECT_NE(err_.str().find("--budget"), std::string::npos);
}

TEST_F(CliTest, InterdictRejectsNonNumericBudget) {
  generate();
  EXPECT_EQ(run({"interdict", "--osm", osm_path_, "--budget", "ten"}), 1);
  EXPECT_NE(err_.str().find("--budget expects a number"), std::string::npos);
}

TEST_F(CliTest, IsolateRejectsNegativeRadius) {
  generate();
  EXPECT_EQ(run({"isolate", "--osm", osm_path_, "--radius", "-5"}), 1);
  EXPECT_NE(err_.str().find("--radius"), std::string::npos);
}

// Regression tests for the silent-default flag bug: a typo'd flag used to
// fall through to every get()'s default.  Now Flags rejects it up front
// with the exact offending token, for every subcommand.

TEST_F(CliTest, TypoedFlagRejectedWithExactToken) {
  EXPECT_EQ(run({"attack", "--osm", osm_path_, "--algoritm", "greedy-pathcover"}), 1);
  EXPECT_NE(err_.str().find("unknown flag '--algoritm' for 'attack'"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, UnknownFlagRejectedForEverySubcommand) {
  for (const char* command :
       {"generate", "info", "attack", "isolate", "interdict", "routed", "stats", "loadgen"}) {
    EXPECT_EQ(run({command, "--bogus", "1"}), 1) << command;
    EXPECT_NE(err_.str().find(std::string("unknown flag '--bogus' for '") + command + "'"),
              std::string::npos)
        << command << ": " << err_.str();
  }
}

TEST_F(CliTest, UnknownFlagErrorListsAllowedFlags) {
  EXPECT_EQ(run({"generate", "--bogus", "1"}), 1);
  EXPECT_NE(err_.str().find("allowed:"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("--seed"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("--out"), std::string::npos) << err_.str();
}

TEST_F(CliTest, DuplicateFlagRejected) {
  EXPECT_EQ(run({"generate", "--city", "chicago", "--city", "boston", "--out", osm_path_}), 1);
  EXPECT_NE(err_.str().find("duplicate flag '--city'"), std::string::npos) << err_.str();
}

TEST_F(CliTest, RoutedRejectsNegativeThreads) {
  EXPECT_EQ(run({"routed", "--osm", osm_path_, "--threads", "-4"}), 1);
  EXPECT_NE(err_.str().find("--threads"), std::string::npos) << err_.str();
}

TEST_F(CliTest, RoutedRejectsOutOfRangePort) {
  EXPECT_EQ(run({"routed", "--osm", osm_path_, "--port", "70000"}), 1);
  EXPECT_NE(err_.str().find("--port"), std::string::npos) << err_.str();
}

TEST_F(CliTest, StatsRequiresConcretePort) {
  // Same client-side rule as loadgen: never guess which daemon to poll.
  EXPECT_EQ(run({"stats"}), 1);
  EXPECT_NE(err_.str().find("--port"), std::string::npos) << err_.str();
}

TEST_F(CliTest, StatsRejectsUnreadablePortFile) {
  EXPECT_EQ(run({"stats", "--port-file", (dir_ / "nope.port").string()}), 1);
  EXPECT_NE(err_.str().find("--port-file"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRequiresConcretePort) {
  // No --port, no --port-file, MTS_PORT unset: the client must not guess.
  EXPECT_EQ(run({"loadgen", "--requests", "1"}), 1);
  EXPECT_NE(err_.str().find("--port"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRejectsUnreadablePortFile) {
  EXPECT_EQ(run({"loadgen", "--port-file", (dir_ / "nope.port").string()}), 1);
  EXPECT_NE(err_.str().find("--port-file"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRejectsBadMix) {
  EXPECT_EQ(run({"loadgen", "--port", "1", "--mix", "chaos"}), 1);
  EXPECT_NE(err_.str().find("unknown mix 'chaos'"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRejectsKBeyondProtocolCap) {
  EXPECT_EQ(run({"loadgen", "--port", "1", "--k", "65"}), 1);
  EXPECT_NE(err_.str().find("--k must be in [1, 64]"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRejectsRankBeyondProtocolCap) {
  EXPECT_EQ(run({"loadgen", "--port", "1", "--rank", "513"}), 1);
  EXPECT_NE(err_.str().find("--rank must be in [1, 512]"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRejectsNegativeRetriesAndReconnects) {
  EXPECT_EQ(run({"loadgen", "--port", "1", "--retries", "-1"}), 1);
  EXPECT_NE(err_.str().find("--retries must be >= 0"), std::string::npos) << err_.str();
  err_.str("");
  EXPECT_EQ(run({"loadgen", "--port", "1", "--reconnects", "-2"}), 1);
  EXPECT_NE(err_.str().find("--reconnects must be >= 0"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRequireZeroDropsIsBoolean) {
  EXPECT_EQ(run({"loadgen", "--port", "1", "--require-zero-drops", "2"}), 1);
  EXPECT_NE(err_.str().find("--require-zero-drops must be 0 or 1"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, RoutedRejectsMalformedOverloadKnobs) {
  // Each knob validates before the daemon binds a port, so a typo fails
  // fast instead of silently serving unprotected.
  const char* knobs[] = {"MTS_MAX_INFLIGHT", "MTS_MAX_QUEUE", "MTS_DEADLINE_MS",
                         "MTS_WRITE_TIMEOUT_MS"};
  // "-3" probes the sign check; "nope" and "250x" probe strict parsing —
  // a garbage value must not fall back to 0 and serve unprotected.  Every
  // rejection names the knob; the sign check also says what it expects,
  // and the parse check quotes the value it could not read.
  for (const char* value : {"-3", "nope", "250x"}) {
    const std::string expected =
        std::string(value) == "-3" ? " must be >= 0" : std::string("'") + value + "'";
    for (const char* name : knobs) {
      ASSERT_EQ(setenv(name, value, 1), 0);
      err_.str("");
      EXPECT_EQ(run({"routed", "--osm", osm_path_}), 1) << name << "=" << value;
      EXPECT_NE(err_.str().find(name), std::string::npos)
          << name << "=" << value << ": " << err_.str();
      EXPECT_NE(err_.str().find(expected), std::string::npos)
          << name << "=" << value << ": " << err_.str();
      ASSERT_EQ(unsetenv(name), 0);
    }
  }
}

}  // namespace
}  // namespace mts::cli
