// Dynamic-impact bench: apply each algorithm's Force Path Cut plan as live
// road closures in the traffic simulator and measure the *realized* victim
// delay — the end-to-end harm the paper's static analysis predicts.
#include <iostream>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"
#include "sim/traffic_sim.hpp"

int main() {
  using namespace mts;
  using attack::Algorithm;

  const auto env = BenchEnv::from_environment();
  env.print_run_header("sim_attack_impact");
  const int trials = std::max(2, env.trials / 4);
  const int path_rank = std::min(env.path_rank, 50);

  const auto network = citygen::generate_city(citygen::City::Boston, env.scale, env.seed);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);
  const auto intersections = network.intersection_nodes();

  Rng rng(env.seed ^ 0x51515151ULL);
  exp::ScenarioOptions scenario_options;
  scenario_options.path_rank = path_rank;
  const auto scenarios = exp::sample_scenarios(network, weights, trials, rng, scenario_options);

  Table table("Simulated victim delay under Force Path Cut closures (Boston, TIME, "
              "UNIFORM, p* rank " + std::to_string(path_rank) + ", 150 background vehicles)",
              {"Algorithm", "Mean Delay Factor", "Max Delay Factor", "Forced Route Taken",
               "Mean Removed"});

  for (Algorithm algorithm : attack::kAllAlgorithms) {
    RunningStats delay;
    RunningStats removed;
    int forced_route = 0;
    int runs = 0;
    for (const auto& scenario : scenarios) {
      const auto problem = exp::make_problem(network.graph(), weights, costs, scenario);
      const auto attack_result = run_attack(algorithm, problem);
      if (attack_result.status != attack::AttackStatus::Success) continue;

      auto simulate = [&](bool attacked) {
        sim::TrafficSimulation simulation(network);
        simulation.add_vehicle({scenario.source, scenario.target, 30.0, true});
        Rng traffic_rng(env.seed + 5);
        for (int i = 0; i < 150; ++i) {
          const NodeId from = intersections[traffic_rng.uniform_index(intersections.size())];
          const NodeId to = intersections[traffic_rng.uniform_index(intersections.size())];
          simulation.add_vehicle({from, to, traffic_rng.uniform(0.0, 120.0)});
        }
        if (attacked) {
          for (EdgeId e : attack_result.removed_edges) simulation.add_closure(e, 0.0);
        }
        return simulation.run();
      };

      const auto baseline = simulate(false).victim_outcome();
      const auto attacked_run = simulate(true);
      const auto attacked = attacked_run.victim_outcome();
      if (!baseline || !baseline->arrived || !attacked || !attacked->arrived) continue;

      delay.add(attacked->travel_time_s / baseline->travel_time_s);
      removed.add(static_cast<double>(attack_result.num_removed()));
      if (attacked->route_taken == scenario.p_star.edges) ++forced_route;
      ++runs;
    }
    if (runs == 0) continue;
    table.add_row({to_string(algorithm), format_fixed(delay.mean(), 2),
                   format_fixed(delay.max(), 2),
                   std::to_string(forced_route) + "/" + std::to_string(runs),
                   format_fixed(removed.mean(), 2)});
  }
  table.render_text(std::cout);
  table.save_csv("bench_results/sim_attack_impact.csv");
  exp::save_observability("bench_results/sim_attack_impact");
  std::cout << "\n'Forced Route Taken' counts runs where the dynamically-rerouting victim\n"
               "drove exactly the attacker-chosen p* (background congestion can justify\n"
               "small deviations).  Delay factor = attacked / unattacked travel time.\n";
  return 0;
}
