// Observability end-to-end properties:
//   1. Golden file: with metrics off, the experiment JSON is byte-identical
//      to the output captured before the instrumentation layer existed.
//   2. Turning MTS_METRICS/MTS_TRACE on changes ZERO table/JSON bytes — the
//      knobs only add side-channel files — while the registry fills with
//      pipeline counters and hierarchical phases.
//   3. MTS_TIMING=0 zeroes every phase duration in the snapshot; counts
//      stay exact.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/timer.hpp"
#include "exp/json_report.hpp"
#include "exp/table_runner.hpp"
#include "obs/metrics.hpp"

namespace mts::exp {
namespace {

/// Matches the seed run that produced the checked-in golden file
/// (bench/table02 with MTS_SCALE=0.2 MTS_TRIALS=3 MTS_PATH_RANK=10
/// MTS_SEED=11 MTS_TIMING=0); the fixture turns timing off to match.
RunConfig golden_config() {
  RunConfig config;
  config.city = citygen::City::Boston;
  config.weight = attack::WeightType::Length;
  config.scale = 0.2;
  config.trials = 3;
  config.path_rank = 10;
  config.seed = 11;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::MetricsRegistry::instance().reset();
    set_timing_enabled(false);
  }
  void TearDown() override {
    obs::MetricsRegistry::instance().reset();
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    set_timing_enabled(true);
  }
};

TEST_F(ObservabilityTest, MetricsOffMatchesPrePrGoldenFile) {
  const auto result = run_city_table(golden_config());
  const std::string golden =
      read_file(std::string(MTS_TEST_GOLDEN_DIR) + "/table02_boston_length_small.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(to_json(result), golden);
}

TEST_F(ObservabilityTest, EnablingObservabilityChangesNoOutputBytes) {
  const auto baseline = run_city_table(golden_config());
  const std::string baseline_json = to_json(baseline);
  std::ostringstream baseline_csv;
  render_city_table(baseline).render_csv(baseline_csv);

  obs::set_trace_enabled(true);  // implies metrics
  const auto instrumented = run_city_table(golden_config());
  std::ostringstream instrumented_csv;
  render_city_table(instrumented).render_csv(instrumented_csv);

  EXPECT_EQ(to_json(instrumented), baseline_json);
  EXPECT_EQ(instrumented_csv.str(), baseline_csv.str());

  // The run was genuinely instrumented: pipeline counters are nonzero and
  // the phase hierarchy covers attack -> oracle -> dijkstra.
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  std::uint64_t yen_pushed = 0;
  std::uint64_t lp_solves = 0;
  std::uint64_t oracle_calls = 0;
  for (const auto& counter : snap.counters) {
    if (counter.name == "yen.candidates_pushed") yen_pushed = counter.value;
    if (counter.name == "lp.solves") lp_solves = counter.value;
    if (counter.name == "oracle.calls") oracle_calls = counter.value;
  }
  EXPECT_GT(yen_pushed, 0u);
  EXPECT_GT(lp_solves, 0u);
  EXPECT_GT(oracle_calls, 0u);
  bool found_oracle_dijkstra = false;
  for (const auto& phase : snap.phases) {
    if (phase.path == "cell/attack/oracle/dijkstra") found_oracle_dijkstra = true;
  }
  EXPECT_TRUE(found_oracle_dijkstra);
  EXPECT_FALSE(obs::MetricsRegistry::instance().trace_events().empty());
}

TEST_F(ObservabilityTest, TimingOffZeroesAllPhaseSeconds) {
  obs::set_metrics_enabled(true);
  set_timing_enabled(false);
  (void)run_city_table(golden_config());
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  ASSERT_FALSE(snap.phases.empty());
  for (const auto& phase : snap.phases) {
    EXPECT_EQ(phase.seconds, 0.0) << phase.path;
    EXPECT_GT(phase.count, 0u) << phase.path;
  }
}

}  // namespace
}  // namespace mts::exp
