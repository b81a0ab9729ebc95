// Cut goldens for the exact baseline and the multi-victim attack: every
// instance `ablation_optimality` and `multi_victim_coordination` solve at
// their default knobs (scale 1, seed 7, 24 trials), pinned as status,
// sorted removed edge ids, cost (%.17g), rounds, oracle calls and the
// caller's extra field.  Both run the constraint-generation loop of
// attack/path_cover.hpp with a different cover solver, so a change to that
// loop, to the exact cover or to the greedy cover moves these lines.  Each
// line is formatted by `describe` below; the files were recorded with it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "attack/exact.hpp"
#include "attack/models.hpp"
#include "attack/multi_victim.hpp"
#include "citygen/generate.hpp"
#include "core/rng.hpp"
#include "exp/scenario.hpp"

namespace mts::attack {
namespace {

constexpr std::uint64_t kSeed = 7;  // BenchEnv's default MTS_SEED

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

template <typename Result>
std::string describe(const Result& result) {
  char cost[40];
  std::snprintf(cost, sizeof cost, "%.17g", result.total_cost);
  std::string line = std::string(" status=") + to_string(result.status) + " cost=" + cost +
                     " iterations=" + std::to_string(result.iterations) +
                     " oracle_calls=" + std::to_string(result.oracle_calls) + " removed=";
  for (std::size_t i = 0; i < result.removed_edges.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(result.removed_edges[i].value());
  }
  return line;
}

// ablation_optimality's instances: Boston, TIME, WIDTH, p* rank 60.
TEST(CutGolden, ExactAttackOnAblationOptimalityInstances) {
  const auto network = citygen::generate_city(citygen::City::Boston, 1.0, kSeed);
  const auto weights = make_weights(network, WeightType::Time);
  const auto costs = make_costs(network, CostType::Width);
  Rng rng(kSeed ^ 0xbadc0deULL);
  exp::ScenarioOptions options;
  options.path_rank = 60;
  const auto scenarios = exp::sample_scenarios(network, weights, 24, rng, options);

  std::string actual;
  for (const auto& scenario : scenarios) {
    ForcePathCutProblem problem;
    problem.graph = &network.graph();
    problem.weights = weights;
    problem.costs = costs;
    problem.source = scenario.source;
    problem.target = scenario.target;
    problem.p_star = scenario.p_star;
    problem.seed_paths = scenario.prefix;
    const auto exact = run_exact_attack(problem);
    actual += "trial " + std::to_string(scenario.trial) + describe(exact) +
              " proven_optimal=" + (exact.proven_optimal ? "1" : "0") + "\n";
  }
  EXPECT_EQ(actual, read_file(std::string(MTS_TEST_GOLDEN_DIR) +
                              "/exact_cuts_boston_time_width_rank60.txt"));
}

// multi_victim_coordination's groups: Chicago, TIME, UNIFORM, p* rank 30,
// 2-4 victims to one hospital.  Every group that fills up is pinned, also
// the ones the bench then skips because a solo attack failed.
TEST(CutGolden, MultiVictimOnCoordinationInstances) {
  const auto network = citygen::generate_city(citygen::City::Chicago, 1.0, kSeed);
  const auto weights = make_weights(network, WeightType::Time);
  const auto costs = make_costs(network, CostType::Uniform);
  Rng rng(kSeed ^ 0xfeedULL);
  exp::ScenarioOptions options;
  options.path_rank = 30;

  std::string actual;
  for (std::size_t victims : {2u, 3u, 4u}) {
    for (int group = 0; group < 4; ++group) {
      MultiVictimProblem problem;
      problem.graph = &network.graph();
      problem.weights = weights;
      problem.costs = costs;
      while (problem.victims.size() < victims) {
        const auto scenario = exp::sample_scenario(network, weights, group % 4, rng, options);
        if (!scenario) break;
        bool duplicate = false;
        for (const auto& v : problem.victims) duplicate |= v.source == scenario->source;
        if (duplicate) continue;
        problem.victims.push_back(
            {scenario->source, scenario->target, scenario->p_star, scenario->prefix});
      }
      actual += "victims " + std::to_string(victims) + " group " + std::to_string(group);
      if (problem.victims.size() < victims) {
        actual += " incomplete\n";
        continue;
      }
      const auto shared = run_multi_victim_attack(problem);
      actual += describe(shared) + " victim_forced=";
      for (std::uint8_t forced : shared.victim_forced) actual += forced ? '1' : '0';
      actual += '\n';
    }
  }
  EXPECT_EQ(actual, read_file(std::string(MTS_TEST_GOLDEN_DIR) +
                              "/multi_victim_cuts_chicago_time_uniform_rank30.txt"));
}

}  // namespace
}  // namespace mts::attack
