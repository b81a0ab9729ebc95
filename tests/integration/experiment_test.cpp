// Tests of the experiment harness itself (scenario sampling, table
// aggregation, paper-value lookups).
#include <gtest/gtest.h>

#include <sstream>

#include "citygen/generate.hpp"
#include "exp/paper_values.hpp"
#include "exp/table_runner.hpp"

namespace mts::exp {
namespace {

using attack::Algorithm;
using attack::CostType;
using attack::WeightType;
using citygen::City;

TEST(ScenarioSampling, ProducesRequestedRankAndPrefix) {
  const auto network = citygen::generate_city(City::Chicago, 0.2, 8);
  const auto weights = attack::make_weights(network, WeightType::Time);
  Rng rng(4);
  ScenarioOptions options;
  options.path_rank = 15;
  const auto scenarios = sample_scenarios(network, weights, 4, rng, options);
  ASSERT_GE(scenarios.size(), 3u);
  for (const auto& scenario : scenarios) {
    EXPECT_EQ(scenario.prefix.size(), 14u);
    // Ranked: every prefix path no longer than p*.
    for (const auto& p : scenario.prefix) {
      EXPECT_LE(p.length, scenario.p_star_length + 1e-9);
    }
    EXPECT_GE(scenario.yen_seconds, 0.0);
    EXPECT_FALSE(scenario.hospital.empty());
  }
  // Hospitals rotate.
  EXPECT_NE(scenarios[0].hospital, scenarios[1].hospital);
}

TEST(ScenarioSampling, RespectsMinimumSeparation) {
  const auto network = citygen::generate_city(City::Chicago, 0.2, 8);
  const auto weights = attack::make_weights(network, WeightType::Time);
  const double mean_segment =
      compute_network_metrics(network.graph()).mean_segment_length;
  Rng rng(4);
  ScenarioOptions options;
  options.path_rank = 5;
  const auto scenario = sample_scenario(network, weights, 0, rng, options);
  ASSERT_TRUE(scenario.has_value());
  const auto& g = network.graph();
  EXPECT_GE(g.node_distance(scenario->source, scenario->target),
            kMinSeparationSegments * mean_segment);
}

TEST(TableRunner, SmallRunFillsAllCells) {
  RunConfig config;
  config.city = City::Chicago;
  config.scale = 0.2;
  config.weight = WeightType::Time;
  config.trials = 2;
  config.path_rank = 12;
  config.seed = 5;
  const auto result = run_city_table(config);
  ASSERT_GE(result.scenarios_run, 1);
  for (Algorithm algorithm : attack::kAllAlgorithms) {
    for (CostType cost : attack::kAllCostTypes) {
      const auto& cell = result.cell(algorithm, cost);
      EXPECT_EQ(cell.verification_failures, 0)
          << to_string(algorithm) << "/" << to_string(cost);
      EXPECT_EQ(cell.n, result.scenarios_run);
      EXPECT_GT(cell.aner(), 0.0);
      EXPECT_GT(cell.acre(), 0.0);
      EXPECT_GE(cell.avg_runtime(), 0.0);
    }
  }
  // ACRE ordering from the paper: UNIFORM <= LANES <= WIDTH per algorithm.
  for (Algorithm algorithm : attack::kAllAlgorithms) {
    const double uniform = result.cell(algorithm, CostType::Uniform).acre();
    const double lanes = result.cell(algorithm, CostType::Lanes).acre();
    const double width = result.cell(algorithm, CostType::Width).acre();
    EXPECT_LE(uniform, lanes + 1e-9);
    EXPECT_LE(lanes, width + 1e-9);
  }
  // Under UNIFORM costs ACRE == ANER by definition.
  for (Algorithm algorithm : attack::kAllAlgorithms) {
    const auto& cell = result.cell(algorithm, CostType::Uniform);
    EXPECT_NEAR(cell.acre(), cell.aner(), 1e-9);
  }
}

TEST(TableRunner, RenderedTableHasFourRows) {
  RunConfig config;
  config.city = City::Chicago;
  config.scale = 0.2;
  config.trials = 1;
  config.path_rank = 8;
  const auto result = run_city_table(config);
  const auto table = render_city_table(result);
  EXPECT_EQ(table.num_rows(), 4u);
  std::ostringstream out;
  table.render_text(out);
  EXPECT_NE(out.str().find("GreedyPathCover"), std::string::npos);
  EXPECT_NE(out.str().find("LP-PathCover"), std::string::npos);
}

TEST(TableRunner, DetailedTableIncludesSpread) {
  RunConfig config;
  config.city = City::Chicago;
  config.scale = 0.2;
  config.trials = 3;
  config.path_rank = 8;
  const auto result = run_city_table(config);
  const auto table = render_city_table_detailed(result);
  EXPECT_EQ(table.num_rows(), kNumAlgorithms * kNumCostTypes);
  std::ostringstream out;
  table.render_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("ANER Stddev"), std::string::npos);
  EXPECT_NE(csv.find("LP-PathCover,UNIFORM"), std::string::npos);
  // Stddev is tracked per cell and finite.
  for (attack::Algorithm a : attack::kAllAlgorithms) {
    for (CostType c : attack::kAllCostTypes) {
      EXPECT_GE(result.cell(a, c).edges_removed.stddev(), 0.0);
      EXPECT_LE(result.cell(a, c).edges_removed.stddev(), 50.0);
    }
  }
}

TEST(TableRunner, SummarizeAveragesCells) {
  RunConfig config;
  config.city = City::Chicago;
  config.scale = 0.2;
  config.trials = 1;
  config.path_rank = 8;
  const auto result = run_city_table(config);
  const auto summary = summarize(result);
  EXPECT_GT(summary.aner, 0.0);
  EXPECT_GE(summary.acre, summary.aner * 0.8);
}

TEST(Threshold, OrganicCityHasBiggerPathRankGap) {
  // Paper Table X: Boston's increase to the k-th path dwarfs Chicago's.
  // Averaged over two seeds to control sampling noise at test scale.
  double boston_100 = 0.0;
  double chicago_100 = 0.0;
  for (std::uint64_t seed : {3ULL, 19ULL}) {
    const auto boston = run_threshold_experiment(City::Boston, 0.5, 6, seed);
    const auto chicago = run_threshold_experiment(City::Chicago, 0.5, 6, seed);
    ASSERT_GT(boston.n, 0);
    ASSERT_GT(chicago.n, 0);
    EXPECT_GE(boston.avg_increase_100th, 0.0);
    EXPECT_GE(boston.avg_increase_200th, boston.avg_increase_100th);
    EXPECT_GE(chicago.avg_increase_200th, chicago.avg_increase_100th);
    boston_100 += boston.avg_increase_100th;
    chicago_100 += chicago.avg_increase_100th;
  }
  EXPECT_GT(boston_100, chicago_100);
}

TEST(PaperValues, TablesPresentAndConsistent) {
  // Every city/weight except LA-LENGTH has full 4x3 cell data.
  for (City city : citygen::kAllCities) {
    for (WeightType weight : attack::kAllWeightTypes) {
      const bool expect_present = !(city == City::LosAngeles && weight == WeightType::Length);
      for (Algorithm algorithm : attack::kAllAlgorithms) {
        for (CostType cost : attack::kAllCostTypes) {
          const auto cell = paper_cell(city, weight, algorithm, cost);
          EXPECT_EQ(cell.has_value(), expect_present);
          if (cell) {
            EXPECT_GT(cell->runtime, 0.0);
            EXPECT_GT(cell->aner, 0.0);
            EXPECT_GE(cell->acre, cell->aner - 1e-9);  // cost >= 1 per edge
          }
        }
      }
    }
  }
}

TEST(PaperValues, UniformAcreEqualsAner) {
  for (City city : citygen::kAllCities) {
    for (Algorithm algorithm : attack::kAllAlgorithms) {
      const auto cell = paper_cell(city, WeightType::Time, algorithm, CostType::Uniform);
      ASSERT_TRUE(cell.has_value());
      EXPECT_NEAR(cell->aner, cell->acre, 1e-9);
    }
  }
}

TEST(PaperValues, Table1AndTable10Lookups) {
  EXPECT_EQ(paper_table1(City::Boston).nodes, 11171);
  EXPECT_EQ(paper_table1(City::LosAngeles).nodes, 51716);
  EXPECT_TRUE(paper_table10(City::Boston).has_value());
  EXPECT_FALSE(paper_table10(City::LosAngeles).has_value());
  EXPECT_NEAR(paper_table9(City::Chicago, WeightType::Time).aner, 4.02, 1e-9);
}

TEST(PaperValues, NaiveAlgorithmsNeverBeatLpInPaperTables) {
  // Reproducible part of the §III-B claim: in every published cell the
  // naive algorithms' attack cost is at least LP-PathCover's.  (The
  // paper's aggregate "gap 2.3 in Boston vs 1.4 in Chicago" does NOT
  // follow from its own Tables II-VII under any averaging we could find —
  // recomputing the mean naive-minus-LP ACRE gap gives ~1.4 for Boston
  // and ~2.0 for Chicago.  EXPERIMENTS.md documents this discrepancy; the
  // direction-of-effect claim is tested on measured data via Table X
  // instead, see Threshold.OrganicCityHasBiggerPathRankGap.)
  for (City city : citygen::kAllCities) {
    for (WeightType weight : attack::kAllWeightTypes) {
      for (CostType cost : attack::kAllCostTypes) {
        const auto lp_cell = paper_cell(city, weight, Algorithm::LpPathCover, cost);
        if (!lp_cell) continue;
        const auto ge = paper_cell(city, weight, Algorithm::GreedyEdge, cost);
        const auto eig = paper_cell(city, weight, Algorithm::GreedyEig, cost);
        EXPECT_GE(ge->acre, lp_cell->acre - 1e-9);
        EXPECT_GE(eig->acre, lp_cell->acre - 1e-9);
      }
    }
  }
}

TEST(PaperValues, Table10GapOrderingBostonSfChicago) {
  // Table X (which the paper ties to the naive-vs-LP gap): Boston's
  // increase to the 100th path dwarfs Chicago's, with SF in between.
  const auto boston = paper_table10(City::Boston);
  const auto sf = paper_table10(City::SanFrancisco);
  const auto chicago = paper_table10(City::Chicago);
  ASSERT_TRUE(boston && sf && chicago);
  EXPECT_GT(boston->increase_100th, sf->increase_100th);
  EXPECT_GT(sf->increase_100th, chicago->increase_100th);
}

}  // namespace
}  // namespace mts::exp
