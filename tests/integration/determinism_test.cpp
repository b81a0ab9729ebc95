// Parallel determinism property tests: the experiment harness must produce
// bit-identical scenarios, tables, and JSON at every thread count.  This is
// also the parallel workload the TSan ctest run exercises.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "citygen/generate.hpp"
#include "core/thread_pool.hpp"
#include "exp/json_report.hpp"
#include "exp/table_runner.hpp"
#include "test_util.hpp"

namespace mts::exp {
namespace {

using attack::WeightType;
using citygen::City;

RunConfig small_config() {
  RunConfig config;
  config.city = City::Chicago;
  config.scale = 0.2;
  config.weight = WeightType::Time;
  config.trials = 3;
  config.path_rank = 10;
  config.seed = 11;
  return config;
}

/// Everything a table run emits, as one string: both renderings + JSON.
std::string run_fingerprint(std::size_t threads) {
  // Wall-clock columns are inherently nondeterministic; zero them so the
  // rendered bytes can be compared across thread counts.
  const test::ScopedTimingOff timing_off;
  set_num_threads(threads);
  const auto result = run_city_table(small_config());
  set_num_threads(0);
  std::ostringstream out;
  render_city_table(result).render_csv(out);
  render_city_table_detailed(result).render_csv(out);
  out << to_json(result) << '\n';
  return out.str();
}

TEST(ParallelDeterminism, CityTableBytesIdenticalAtAnyThreadCount) {
  const std::string serial = run_fingerprint(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"scenarios_run\":3"), std::string::npos) << serial;
  EXPECT_EQ(serial, run_fingerprint(2));
  EXPECT_EQ(serial, run_fingerprint(8));
}

TEST(ParallelDeterminism, ScenarioSamplingIdenticalAtAnyThreadCount) {
  const auto network = citygen::generate_city(City::Chicago, 0.2, 8);
  const auto weights = attack::make_weights(network, WeightType::Time);
  ScenarioOptions options;
  options.path_rank = 8;
  const auto sample = [&](std::size_t threads) {
    set_num_threads(threads);
    auto scenarios = sample_scenarios(network, weights, 4, 99, options);
    set_num_threads(0);
    return scenarios;
  };
  const auto serial = sample(1);
  ASSERT_GE(serial.size(), 2u);
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = sample(threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].source, serial[i].source) << i;
      EXPECT_EQ(parallel[i].target, serial[i].target) << i;
      EXPECT_EQ(parallel[i].hospital, serial[i].hospital) << i;
      EXPECT_EQ(parallel[i].p_star.edges, serial[i].p_star.edges) << i;
      EXPECT_EQ(parallel[i].prefix.size(), serial[i].prefix.size()) << i;
    }
  }
}

TEST(ParallelDeterminism, SeedChangesTheTable) {
  // Sanity check that the fingerprint is sensitive at all: a different
  // seed must change the sampled scenarios and thus the table bytes.
  set_num_threads(2);
  auto config = small_config();
  const auto base = run_city_table(config);
  config.seed = 12;
  const auto other = run_city_table(config);
  set_num_threads(0);
  EXPECT_NE(to_json(base), to_json(other));
}

}  // namespace
}  // namespace mts::exp
