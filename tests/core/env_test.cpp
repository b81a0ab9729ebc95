#include "core/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/error.hpp"

namespace mts {
namespace {

TEST(Env, IntFallbackWhenUnset) {
  unsetenv("MTS_TEST_UNSET");
  EXPECT_EQ(env_int("MTS_TEST_UNSET", 42), 42);
}

TEST(Env, IntParsesValue) {
  setenv("MTS_TEST_INT", "17", 1);
  EXPECT_EQ(env_int("MTS_TEST_INT", 0), 17);
  unsetenv("MTS_TEST_INT");
}

/// Expects `read()` to throw InvalidInput naming `name` and quoting `value`.
template <typename Read>
void expect_rejected(const char* name, const char* value, Read read) {
  setenv(name, value, 1);
  try {
    read();
    ADD_FAILURE() << "accepted " << name << "=" << value;
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos) << what;
  }
  unsetenv(name);
}

// A malformed knob must be an error, never a silent fall-back to the
// default: MTS_TRIALS=2O (letter O) used to run with 2 trials.
TEST(Env, IntRejectsGarbage) {
  for (const char* bad : {"not-a-number", "2O", "4x", "1.5", "99999999999999999999"}) {
    expect_rejected("MTS_TEST_INT", bad, [] { return env_int("MTS_TEST_INT", 5); });
  }
}

TEST(Env, EmptyMeansDefault) {
  setenv("MTS_TEST_INT", "", 1);
  EXPECT_EQ(env_int("MTS_TEST_INT", 5), 5);
  unsetenv("MTS_TEST_INT");
  setenv("MTS_TEST_DBL", "", 1);
  EXPECT_DOUBLE_EQ(env_double("MTS_TEST_DBL", 1.5), 1.5);
  unsetenv("MTS_TEST_DBL");
}

TEST(Env, DoubleParsesValue) {
  setenv("MTS_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("MTS_TEST_DBL", 0.0), 2.5);
  unsetenv("MTS_TEST_DBL");
}

// MTS_SCALE=O.2 (letter O) used to run scale 1 without a word.
TEST(Env, DoubleRejectsGarbage) {
  for (const char* bad : {"O.2", "0.2x", "half", "nan", "inf", "1e999"}) {
    expect_rejected("MTS_TEST_DBL", bad, [] { return env_double("MTS_TEST_DBL", 1.0); });
  }
}

// env_raw is the repo's single audited getenv entry point (the
// no-raw-getenv lint rule routes every other caller through it); it must
// behave exactly like the libc read it wraps.
TEST(Env, RawReadsTheEnvironment) {
  setenv("MTS_TEST_RAW", "route-based", 1);
  const char* value = env_raw("MTS_TEST_RAW");
  ASSERT_NE(value, nullptr);
  EXPECT_STREQ(value, "route-based");
  unsetenv("MTS_TEST_RAW");
  EXPECT_EQ(env_raw("MTS_TEST_RAW"), nullptr);
}

// env_threads is the strict MTS_THREADS reader: a malformed thread count
// must be an error, never a silent fall-through to the hardware default
// (a negative value used to flow into a pool-size cast).
TEST(Env, ThreadsUnsetOrEmptyMeansAuto) {
  unsetenv("MTS_THREADS");
  EXPECT_EQ(env_threads(), 0u);
  setenv("MTS_THREADS", "", 1);
  EXPECT_EQ(env_threads(), 0u);
  unsetenv("MTS_THREADS");
}

TEST(Env, ThreadsParsesPositiveCount) {
  setenv("MTS_THREADS", "8", 1);
  EXPECT_EQ(env_threads(), 8u);
  unsetenv("MTS_THREADS");
}

TEST(Env, ThreadsRejectsNegative) {
  setenv("MTS_THREADS", "-2", 1);
  EXPECT_THROW(env_threads(), InvalidInput);
  try {
    env_threads();
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("-2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("MTS_THREADS"), std::string::npos) << e.what();
  }
  unsetenv("MTS_THREADS");
}

TEST(Env, ThreadsRejectsGarbageAndTrailingJunk) {
  for (const char* bad : {"four", "4x", "4 2", "0x4", "1e3", "99999999999999999999"}) {
    setenv("MTS_THREADS", bad, 1);
    EXPECT_THROW(env_threads(), InvalidInput) << "accepted MTS_THREADS=" << bad;
  }
  unsetenv("MTS_THREADS");
}

TEST(Env, ThreadsRejectsAbsurdCount) {
  setenv("MTS_THREADS", "99999999", 1);
  EXPECT_THROW(env_threads(), InvalidInput);
  unsetenv("MTS_THREADS");
}

TEST(Env, BenchEnvDefaults) {
  unsetenv("MTS_SCALE");
  unsetenv("MTS_TRIALS");
  unsetenv("MTS_SEED");
  unsetenv("MTS_PATH_RANK");
  const auto env = BenchEnv::from_environment();
  EXPECT_DOUBLE_EQ(env.scale, 1.0);
  EXPECT_EQ(env.trials, 24);
  EXPECT_EQ(env.seed, 7u);
  EXPECT_EQ(env.path_rank, 100);
}

TEST(Env, BenchEnvOverrides) {
  setenv("MTS_SCALE", "2.5", 1);
  setenv("MTS_TRIALS", "40", 1);
  setenv("MTS_SEED", "99", 1);
  setenv("MTS_PATH_RANK", "200", 1);
  const auto env = BenchEnv::from_environment();
  EXPECT_DOUBLE_EQ(env.scale, 2.5);
  EXPECT_EQ(env.trials, 40);
  EXPECT_EQ(env.seed, 99u);
  EXPECT_EQ(env.path_rank, 200);
  unsetenv("MTS_SCALE");
  unsetenv("MTS_TRIALS");
  unsetenv("MTS_SEED");
  unsetenv("MTS_PATH_RANK");
}

TEST(Env, BenchEnvRejectsMistypedKnobs) {
  const auto read = [] { return BenchEnv::from_environment(); };
  expect_rejected("MTS_SCALE", "O.2", read);
  expect_rejected("MTS_TRIALS", "2O", read);
  expect_rejected("MTS_SEED", "11a", read);
  expect_rejected("MTS_PATH_RANK", "hundred", read);
}

// MTS_TRIALS=-3 used to print an all-zero table and exit 0, and
// MTS_SEED=-1 ran with seed 2^64 - 1: each knob's range is checked where
// it enters.
TEST(Env, BenchEnvRejectsOutOfRangeKnobs) {
  const auto read = [] { return BenchEnv::from_environment(); };
  expect_rejected("MTS_TRIALS", "-3", read);
  expect_rejected("MTS_TRIALS", "0", read);
  expect_rejected("MTS_TRIALS", "4294967297", read);
  expect_rejected("MTS_PATH_RANK", "0", read);
  expect_rejected("MTS_SEED", "-1", read);
  expect_rejected("MTS_SCALE", "0", read);
  expect_rejected("MTS_SCALE", "-0.5", read);
}

// MTS_TIMING=00 used to zero the tables' runtime columns while the run
// header and the metrics JSON, read through timing_enabled(), reported
// timing on with real seconds.  Only "0" and "1" are accepted now.
TEST(Env, BenchEnvTimingAcceptsOnlyZeroOrOne) {
  for (const char* bad : {"00", "off", "false", "2", " 0"}) {
    expect_rejected("MTS_TIMING", bad, [] { return BenchEnv::from_environment(); });
  }
  for (const char* good : {"0", "1", ""}) {
    setenv("MTS_TIMING", good, 1);
    EXPECT_NO_THROW(BenchEnv::from_environment()) << "MTS_TIMING=" << good;
  }
  unsetenv("MTS_TIMING");
}

}  // namespace
}  // namespace mts
