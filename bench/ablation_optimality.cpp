// Ablation — how close do the paper's four approximations get to the
// certified optimum?  PATHATTACK reports its LP variant optimal in > 98%
// of instances; our exact branch-and-bound baseline lets us measure the
// same rate (plus the mean cost ratio) for every algorithm.
#include <iostream>

#include "attack/algorithms.hpp"
#include "attack/exact.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"

int main() {
  using namespace mts;
  using attack::Algorithm;
  using attack::AttackStatus;

  const auto env = BenchEnv::from_environment();
  env.print_run_header("ablation_optimality");
  const int trials = std::max(6, env.trials);
  const int path_rank = std::min(env.path_rank, 60);

  const auto network = citygen::generate_city(citygen::City::Boston, env.scale, env.seed);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Width);

  Rng rng(env.seed ^ 0xbadc0deULL);
  exp::ScenarioOptions scenario_options;
  scenario_options.path_rank = path_rank;
  const auto scenarios = exp::sample_scenarios(network, weights, trials, rng, scenario_options);

  struct Tally {
    int optimal = 0;
    int total = 0;
    RunningStats ratio;
  };
  Tally tallies[4];
  int certified = 0;

  for (const auto& scenario : scenarios) {
    const auto problem = exp::make_problem(network.graph(), weights, costs, scenario);

    const auto exact = run_exact_attack(problem);
    if (exact.status != AttackStatus::Success || !exact.proven_optimal) continue;
    ++certified;
    for (Algorithm algorithm : attack::kAllAlgorithms) {
      const auto approx = run_attack(algorithm, problem);
      if (approx.status != AttackStatus::Success) continue;
      auto& tally = tallies[static_cast<std::size_t>(algorithm)];
      ++tally.total;
      if (approx.total_cost <= exact.total_cost + 1e-9) ++tally.optimal;
      tally.ratio.add(approx.total_cost / exact.total_cost);
    }
  }

  Table table("Ablation — optimality vs certified exact optimum (Boston, TIME, WIDTH, "
              "p* rank " + std::to_string(path_rank) + ", " + std::to_string(certified) +
                  " certified instances)",
              {"Algorithm", "Optimal Instances", "Mean Cost / Optimum", "Worst Cost / Optimum"});
  for (Algorithm algorithm : attack::kAllAlgorithms) {
    const auto& tally = tallies[static_cast<std::size_t>(algorithm)];
    if (tally.total == 0) continue;
    table.add_row({to_string(algorithm),
                   std::to_string(tally.optimal) + "/" + std::to_string(tally.total),
                   format_fixed(tally.ratio.mean(), 3), format_fixed(tally.ratio.max(), 3)});
  }
  table.render_text(std::cout);
  table.save_csv("bench_results/ablation_optimality.csv");
  exp::save_observability("bench_results/ablation_optimality");
  std::cout << "\nPATHATTACK (Miller et al. 2021) reports the LP approach optimal in > 98%\n"
               "of instances; LP-PathCover and GreedyPathCover should sit near 100% here,\n"
               "the naive algorithms well below.\n";
  return 0;
}
