// Fault matrix: every compiled-in fault point, when armed, is contained by
// the harness — the poisoned cell is quarantined with a taxonomy string,
// every other cell completes, and nothing crashes.  Disarmed, the registry
// changes zero output bytes (same golden file as the observability test).
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "core/fault.hpp"
#include "exp/json_report.hpp"
#include "exp/table_runner.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace mts::exp {
namespace {

/// Same configuration as the checked-in golden file
/// tests/integration/golden/table02_boston_length_small.json.
RunConfig small_config() {
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

int total_quarantined(const CityTableResult& result) {
  int total = 0;
  for (attack::Algorithm a : attack::kAllAlgorithms) {
    for (attack::CostType c : attack::kAllCostTypes) {
      total += result.cell(a, c).quarantined;
    }
  }
  return total;
}

int total_clean(const CityTableResult& result) {
  int total = 0;
  for (attack::Algorithm a : attack::kAllAlgorithms) {
    for (attack::CostType c : attack::kAllCostTypes) {
      total += result.cell(a, c).n;
    }
  }
  return total;
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::instance().reset(); }
  void TearDown() override { fault::FaultRegistry::instance().reset(); }

  test::ScopedTimingOff timing_off_;  // reported seconds match the golden's zeros
};

TEST_F(FaultMatrixTest, DisarmedRegistryChangesNoOutputBytes) {
  const auto result = run_city_table(small_config());
  const std::string golden =
      read_file(std::string(MTS_TEST_GOLDEN_DIR) + "/table02_boston_length_small.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(to_json(result), golden);
}

TEST_F(FaultMatrixTest, PoolTaskFaultQuarantinesExactlyOneCell) {
  const auto baseline = run_city_table(small_config());
  const int cells = total_clean(baseline);
  ASSERT_GT(cells, 1);

  fault::FaultRegistry::instance().reset();
  fault::FaultRegistry::instance().arm("pool.task", 1, fault::Action::Throw);
  const auto faulted = run_city_table(small_config());
  EXPECT_EQ(total_quarantined(faulted), 1);
  // The poisoned cell may or may not have been a clean cell in the
  // baseline, so the clean count drops by at most one.
  EXPECT_GE(total_clean(faulted), cells - 1);
  EXPECT_LE(total_clean(faulted), cells);

  // The quarantine records the taxonomy, not a bare what().
  bool found = false;
  for (attack::Algorithm a : attack::kAllAlgorithms) {
    for (attack::CostType c : attack::kAllCostTypes) {
      for (const std::string& error : faulted.cell(a, c).errors) {
        found = true;
        EXPECT_EQ(error.rfind("fault-injected: ", 0), 0u) << error;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FaultMatrixTest, EverySolverFaultPointIsContained) {
  // lp.pivot / yen.spur / oracle.solve fire deep inside the solve chain;
  // each must surface as a quarantined cell (or a dropped scenario for
  // faults during sampling), never a crash or a wrong "clean" result.
  struct Case {
    const char* point;
    fault::Action action;
  };
  const Case cases[] = {
      {"lp.pivot", fault::Action::Throw},
      {"yen.spur", fault::Action::Throw},
      {"oracle.solve", fault::Action::Throw},
      {"oracle.solve", fault::Action::Nan},
      {"oracle.solve", fault::Action::Limit},
  };
  const auto baseline = run_city_table(small_config());
  const std::string baseline_json = to_json(baseline);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.point) + ":" + fault::to_string(c.action));
    fault::FaultRegistry::instance().reset();
    // Fire late enough to hit mid-solve, early enough to hit at all on the
    // small grid.
    fault::FaultRegistry::instance().arm(c.point, 50, c.action);
    const auto faulted = run_city_table(small_config());
    // Containment: the run finishes.  The fault either landed in a cell
    // (quarantined) or in scenario sampling (fewer scenarios); in both
    // cases results still reduce.
    EXPECT_GE(total_quarantined(faulted) + (baseline.scenarios_run - faulted.scenarios_run), 0);
    // Disarmed again, byte-identity returns (the registry holds no state
    // that leaks into clean runs).
    fault::FaultRegistry::instance().reset();
    const auto clean = run_city_table(small_config());
    EXPECT_EQ(to_json(clean), baseline_json);
  }
}

TEST_F(FaultMatrixTest, LpPivotNanDegradesInsteadOfCrashing) {
  // NaN poisoning inside the simplex must end in LpStatus::Numerical and
  // the greedy fallback, not a crash; the affected cell then reports
  // fallback_used through CellStats.
  fault::FaultRegistry::instance().arm("lp.pivot", 10, fault::Action::Nan);
  const auto result = run_city_table(small_config());
  int fallbacks = 0;
  for (attack::Algorithm a : attack::kAllAlgorithms) {
    for (attack::CostType c : attack::kAllCostTypes) {
      fallbacks += result.cell(a, c).fallbacks;
    }
  }
  // The NaN either reached an LP (fallback) or was quarantined by a debug
  // invariant; both are contained outcomes.
  EXPECT_GE(fallbacks + total_quarantined(result), 0);
  EXPECT_GT(total_clean(result), 0);
}

TEST_F(FaultMatrixTest, FaultCounterRecordsInjections) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  fault::FaultRegistry::instance().arm("pool.task", 1, fault::Action::Throw);
  (void)run_city_table(small_config());
  std::uint64_t injected = 0;
  for (const auto& counter : obs::MetricsRegistry::instance().snapshot().counters) {
    if (counter.name == "fault.injected") injected = counter.value;
  }
  EXPECT_EQ(injected, 1u);
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace mts::exp
