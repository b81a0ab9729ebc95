// Ablation — defensive hardening: how fast does greedily protecting road
// segments drive the attacker's forcing cost up (and when does the attack
// become impossible)?
#include <cmath>
#include <iostream>

#include "attack/defense.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"

int main() {
  using namespace mts;

  const auto env = BenchEnv::from_environment();
  env.print_run_header("ablation_defense");
  const int trials = std::max(3, env.trials / 4);
  const int path_rank = std::min(env.path_rank, 40);
  constexpr std::size_t kMaxProtected = 8;

  const auto network = citygen::generate_city(citygen::City::Chicago, env.scale, env.seed);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);

  Rng rng(env.seed ^ 0x13579bdfULL);
  exp::ScenarioOptions scenario_options;
  scenario_options.path_rank = path_rank;
  const auto scenarios = exp::sample_scenarios(network, weights, trials, rng, scenario_options);

  // cost_after_k[k] aggregates attack cost once k edges are protected.
  std::vector<RunningStats> cost_after(kMaxProtected + 1);
  int blocked = 0;
  int runs = 0;
  for (const auto& scenario : scenarios) {
    const auto problem = exp::make_problem(network.graph(), weights, costs, scenario);

    const auto defense = attack::harden_against_force_path_cut(problem, kMaxProtected);
    if (!std::isfinite(defense.initial_attack_cost)) continue;
    ++runs;
    cost_after[0].add(defense.initial_attack_cost);
    for (std::size_t k = 0; k < defense.rounds.size(); ++k) {
      const double cost = defense.rounds[k].attack_cost_after;
      if (!std::isfinite(cost)) break;
      cost_after[k + 1].add(cost);
    }
    if (defense.attack_blocked) ++blocked;
  }

  Table table("Ablation — greedy hardening vs attack cost (Chicago, TIME, UNIFORM, " +
                  std::to_string(runs) + " scenarios)",
              {"Protected Edges", "Mean Attack Cost", "Scenarios Still Attackable"});
  for (std::size_t k = 0; k <= kMaxProtected; ++k) {
    if (cost_after[k].count() == 0 && k > 0) break;
    table.add_row({std::to_string(k), format_fixed(cost_after[k].mean(), 2),
                   std::to_string(cost_after[k].count()) + "/" + std::to_string(runs)});
  }
  table.render_text(std::cout);
  table.save_csv("bench_results/ablation_defense.csv");
  exp::save_observability("bench_results/ablation_defense");
  std::cout << "\nAttacks fully blocked by " << kMaxProtected
            << " protections: " << blocked << "/" << runs
            << ".  Expected shape: cost is non-decreasing in protections.\n";
  return 0;
}
