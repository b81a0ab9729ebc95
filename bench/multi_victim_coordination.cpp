// Coordination bench — §II-A multi-victim attacks: one shared closure set
// forcing several victims at once, vs. the naive sum of per-victim plans.
// Shared cuts overlap (victims to the same hospital share corridors), so
// coordination should cost less than the sum of individual attacks.
#include <iostream>

#include "attack/models.hpp"
#include "attack/multi_victim.hpp"
#include "citygen/generate.hpp"
#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"

int main() {
  using namespace mts;
  using attack::AttackStatus;

  const auto env = BenchEnv::from_environment();
  env.print_run_header("multi_victim_coordination");
  const int groups = std::max(3, env.trials / 6);
  const int path_rank = std::min(env.path_rank, 30);

  const auto network = citygen::generate_city(citygen::City::Chicago, env.scale, env.seed);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);

  Table table("Multi-victim coordination (Chicago, TIME, UNIFORM, p* rank " +
                  std::to_string(path_rank) + ")",
              {"Victims", "Shared Cut Cost", "Sum of Individual Costs", "Savings",
               "Feasible Groups"});

  Rng rng(env.seed ^ 0xfeedULL);
  for (std::size_t victims : {2u, 3u, 4u}) {
    RunningStats shared_cost;
    RunningStats individual_cost;
    int feasible = 0;
    for (int group = 0; group < groups; ++group) {
      exp::ScenarioOptions options;
      options.path_rank = path_rank;
      attack::MultiVictimProblem problem;
      problem.graph = &network.graph();
      problem.weights = weights;
      problem.costs = costs;
      double solo_total = 0.0;
      bool solo_ok = true;
      while (problem.victims.size() < victims) {
        const auto scenario =
            exp::sample_scenario(network, weights, group % 4, rng, options);
        if (!scenario) break;
        bool duplicate = false;
        for (const auto& v : problem.victims) duplicate |= v.source == scenario->source;
        if (duplicate) continue;
        problem.victims.push_back(
            {scenario->source, scenario->target, scenario->p_star, scenario->prefix});

        const auto solo = exp::make_problem(network.graph(), weights, costs, *scenario);
        const auto solo_result = run_attack(attack::Algorithm::GreedyPathCover, solo);
        solo_ok &= solo_result.status == AttackStatus::Success;
        solo_total += solo_result.total_cost;
      }
      if (problem.victims.size() < victims || !solo_ok) continue;

      const auto shared = run_multi_victim_attack(problem);
      if (shared.status != AttackStatus::Success) continue;
      shared_cost.add(shared.total_cost);
      individual_cost.add(solo_total);
      ++feasible;
    }
    if (feasible == 0) continue;
    table.add_row({std::to_string(victims), format_fixed(shared_cost.mean(), 2),
                   format_fixed(individual_cost.mean(), 2),
                   format_fixed((1.0 - shared_cost.mean() /
                                           std::max(1e-9, individual_cost.mean())) * 100.0,
                                1) + "%",
                   std::to_string(feasible) + "/" + std::to_string(groups)});
  }
  table.render_text(std::cout);
  table.save_csv("bench_results/multi_victim_coordination.csv");
  exp::save_observability("bench_results/multi_victim_coordination");
  std::cout << "\nNote: the shared cut must avoid EVERY victim's chosen route, so its cost\n"
               "is not always below the naive sum — but overlap usually wins.\n";
  return 0;
}
