#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
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

// --scale inf used to write lat="inf" nodes that `mts info` then refused.
TEST_F(CliTest, GenerateRejectsNonFiniteScaleAndWritesNothing) {
  for (const char* scale : {"inf", "nan", "1e999"}) {
    EXPECT_EQ(run({"generate", "--city", "chicago", "--scale", scale, "--out", osm_path_}), 1);
    EXPECT_NE(err_.str().find(std::string("--scale expects a number, got '") + scale + "'"),
              std::string::npos)
        << err_.str();
    EXPECT_FALSE(std::filesystem::exists(osm_path_)) << scale;
  }
}

TEST_F(CliTest, GenerateRejectsNonPositiveScale) {
  EXPECT_EQ(run({"generate", "--city", "chicago", "--scale", "0", "--out", osm_path_}), 1);
  EXPECT_NE(err_.str().find("--scale"), std::string::npos);
}

TEST_F(CliTest, AttackRejectsZeroRank) {
  generate();
  // 2^32 + 1 used to be cast to int and run as rank 1.
  for (const char* rank : {"0", "4294967297"}) {
    EXPECT_EQ(run({"attack", "--osm", osm_path_, "--rank", rank}), 1) << rank;
    EXPECT_NE(err_.str().find("--rank"), std::string::npos) << rank;
  }
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
  // No --port and no --port-file: the client must not guess.
  EXPECT_EQ(run({"loadgen", "--requests", "1"}), 1);
  EXPECT_NE(err_.str().find("--port"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRejectsUnreadablePortFile) {
  EXPECT_EQ(run({"loadgen", "--port-file", (dir_ / "nope.port").string()}), 1);
  EXPECT_NE(err_.str().find("--port-file"), std::string::npos) << err_.str();
}

// A port file holding "123abc" used to dial port 123.
TEST_F(CliTest, LoadgenRejectsAPortFileThatIsNotOnePort) {
  const std::string port_file = (dir_ / "routed.port").string();
  for (const char* text : {"123abc\n", "123\n456\n", " 123\n", "70000\n", "-1\n", ""}) {
    std::ofstream(port_file) << text;
    EXPECT_EQ(run({"loadgen", "--port-file", port_file}), 1) << text;
    EXPECT_NE(err_.str().find("--port-file " + port_file + " is unreadable or not a port number"),
              std::string::npos)
        << text << ": " << err_.str();
  }
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
  // 2^32 used to be cast to a 32-bit retry limit of 0.
  EXPECT_EQ(run({"loadgen", "--port", "1", "--retries", "4294967296"}), 1);
  EXPECT_NE(err_.str().find("--retries does not fit 32 bits"), std::string::npos) << err_.str();
}

TEST_F(CliTest, LoadgenRequireZeroDropsIsBoolean) {
  EXPECT_EQ(run({"loadgen", "--port", "1", "--require-zero-drops", "2"}), 1);
  EXPECT_NE(err_.str().find("--require-zero-drops must be 0 or 1"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, RoutedServesEveryMixAndStatsThenDrainsOnSigterm) {
  generate();
  const std::string port_file = (dir_ / "routed.port").string();
  std::ostringstream routed_out;
  std::ostringstream routed_err;
  std::atomic<bool> routed_done{false};
  int routed_rc = -1;
  std::thread routed([&] {
    routed_rc = run_cli({"routed", "--osm", osm_path_, "--port", "0", "--port-file", port_file,
                         "--threads", "2"},
                        routed_out, routed_err);
    routed_done = true;
  });
  // routed installs its SIGTERM handler before it writes the port file, so
  // once the file holds a whole line a SIGTERM drains instead of killing.
  bool published = false;
  for (int i = 0; i < 1200 && !published && !routed_done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    std::ifstream file(port_file);
    std::string line;
    published = std::getline(file, line) && !file.eof();
  }
  if (!published) {
    routed.join();
    FAIL() << "routed never published its port: " << routed_err.str();
  }

  for (const char* mix : {"route", "kalt", "table", "attack", "mixed"}) {
    EXPECT_EQ(run({"loadgen", "--port-file", port_file, "--requests", "40", "--connections",
                   "2", "--mix", mix, "--rank", "2", "--require-zero-drops", "1"}),
              0)
        << mix << ": " << err_.str();
    EXPECT_NE(out_.str().find("loadgen: sent=40 completed=40 "), std::string::npos)
        << mix << ": " << out_.str();
    EXPECT_NE(out_.str().find("server stats:"), std::string::npos) << out_.str();
  }
  EXPECT_EQ(run({"stats", "--port-file", port_file}), 0) << err_.str();
  EXPECT_NE(out_.str().find("server.requests="), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("window.count="), std::string::npos) << out_.str();

  std::raise(SIGTERM);
  routed.join();
  EXPECT_EQ(routed_rc, 0) << routed_err.str();
  EXPECT_NE(routed_out.str().find("routed: connections="), std::string::npos)
      << routed_out.str();
  EXPECT_NE(routed_err.str().find("[routed] serving"), std::string::npos) << routed_err.str();
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
