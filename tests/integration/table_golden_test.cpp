// Table goldens at the paper's path rank: every Table II-VIII grid at scale
// 1 with p* = the 100th shortest path, 6 trials, seed 11 (the shape of
// perfbench's table workloads).  Rank 100 runs deep constraint-generation
// loops (Boston LENGTH: 36 LP solves of 114-142 pivots each), so a change
// to Yen's tie order or to a single simplex pivot moves these bytes.  Each
// file was recorded with its bench/table0N_* binary at MTS_SCALE=1
// MTS_TRIALS=6 MTS_PATH_RANK=100 MTS_SEED=11 MTS_TIMING=0.
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
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

struct Grid {
  const char* golden;  // file stem under MTS_TEST_GOLDEN_DIR
  citygen::City city;
  attack::WeightType weight;
};

// Names the grid in test listings (the default would dump its bytes).
void PrintTo(const Grid& grid, std::ostream* out) {
  *out << citygen::to_string(grid.city) << ' ' << attack::to_string(grid.weight);
}

class TableGolden : public ::testing::TestWithParam<Grid> {};

TEST_P(TableGolden, AtOneAndFourThreads) {
  const Grid& grid = GetParam();
  const test::ScopedTimingOff timing_off;
  RunConfig config;
  config.city = grid.city;
  config.weight = grid.weight;
  config.scale = 1.0;
  config.trials = 6;
  config.path_rank = 100;
  config.seed = 11;
  const std::string golden =
      read_file(std::string(MTS_TEST_GOLDEN_DIR) + "/" + grid.golden + "_rank100.json");
  ASSERT_FALSE(golden.empty());
  for (const std::size_t threads : {1u, 4u}) {
    set_num_threads(threads);
    const auto result = run_city_table(config);
    set_num_threads(0);
    EXPECT_EQ(to_json(result), golden) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rank100, TableGolden,
    ::testing::Values(
        Grid{"table02_boston_length", citygen::City::Boston, attack::WeightType::Length},
        Grid{"table03_boston_time", citygen::City::Boston, attack::WeightType::Time},
        Grid{"table04_sf_length", citygen::City::SanFrancisco, attack::WeightType::Length},
        Grid{"table05_sf_time", citygen::City::SanFrancisco, attack::WeightType::Time},
        Grid{"table06_chicago_length", citygen::City::Chicago, attack::WeightType::Length},
        Grid{"table07_chicago_time", citygen::City::Chicago, attack::WeightType::Time},
        Grid{"table08_la_time", citygen::City::LosAngeles, attack::WeightType::Time}),
    [](const ::testing::TestParamInfo<Grid>& info) { return std::string(info.param.golden); });

}  // namespace
}  // namespace mts::exp
