// Table golden at the paper's path rank: Boston LENGTH at scale 1 with p*
// = the 100th shortest path, 6 trials, seed 11 (the shape of perfbench's
// table_boston_length workload).  Rank 100 runs deep constraint-generation
// loops (36 LP solves of 114-142 pivots each), so a change to Yen's tie
// order or to a single simplex pivot moves these bytes.  Recorded with
// bench/table02_boston_length at MTS_SCALE=1 MTS_TRIALS=6
// MTS_PATH_RANK=100 MTS_SEED=11 MTS_TIMING=0.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/thread_pool.hpp"
#include "exp/json_report.hpp"
#include "exp/table_runner.hpp"
#include "test_util.hpp"

namespace mts::exp {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TableGolden, BostonLengthRank100AtOneAndFourThreads) {
  const test::ScopedTimingOff timing_off;
  RunConfig config;
  config.city = citygen::City::Boston;
  config.weight = attack::WeightType::Length;
  config.scale = 1.0;
  config.trials = 6;
  config.path_rank = 100;
  config.seed = 11;
  const std::string golden =
      read_file(std::string(MTS_TEST_GOLDEN_DIR) + "/table02_boston_length_rank100.json");
  ASSERT_FALSE(golden.empty());
  for (const std::size_t threads : {1u, 4u}) {
    set_num_threads(threads);
    const auto result = run_city_table(config);
    set_num_threads(0);
    EXPECT_EQ(to_json(result), golden) << threads << " threads";
  }
}

}  // namespace
}  // namespace mts::exp
