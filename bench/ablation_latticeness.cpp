// Ablation — the paper's topology claim as a controlled sweep: hold
// everything fixed and dial latticeness from Chicago-like (organic=0) to
// Boston-like (organic=1).  Reports orientation order, the 100th-path
// threshold, and the naive-vs-LP ACRE gap at each setting.
#include <iostream>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"
#include "graph/metrics.hpp"

int main() {
  using namespace mts;
  using attack::Algorithm;

  const auto env = BenchEnv::from_environment();
  env.print_run_header("ablation_latticeness");
  const int trials = std::max(2, env.trials / 3);
  const int path_rank = std::min(env.path_rank, 60);

  Table table("Ablation — attack cost gap vs latticeness (organic dial)",
              {"Organic", "Orientation Order", "Avg Incr to p* rank " + std::to_string(path_rank),
               "LP ACRE", "Naive ACRE", "Gap"});

  for (double organic : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto spec = citygen::latticeness_spec(organic, env.scale);
    const auto network = citygen::generate_network(spec, env.seed);
    const auto metrics = compute_network_metrics(network.graph());
    const auto weights = attack::make_weights(network, attack::WeightType::Time);
    const auto costs = attack::make_costs(network, attack::CostType::Width);

    Rng rng(env.seed ^ 0xabcdULL);
    exp::ScenarioOptions options;
    options.path_rank = path_rank;
    const auto scenarios = exp::sample_scenarios(network, weights, trials, rng, options);

    double increase = 0.0;
    double lp_acre = 0.0;
    double naive_acre = 0.0;
    int n = 0;
    for (const auto& scenario : scenarios) {
      increase += (scenario.p_star_length / scenario.shortest_length - 1.0) * 100.0;
      const auto problem = exp::make_problem(network.graph(), weights, costs, scenario);
      const auto lp = run_attack(Algorithm::LpPathCover, problem);
      const auto naive = run_attack(Algorithm::GreedyEdge, problem);
      if (lp.status != attack::AttackStatus::Success ||
          naive.status != attack::AttackStatus::Success) {
        continue;
      }
      lp_acre += lp.total_cost;
      naive_acre += naive.total_cost;
      ++n;
    }
    if (n == 0) continue;
    table.add_row({format_fixed(organic, 2), format_fixed(metrics.orientation_order, 3),
                   format_fixed(increase / n, 2) + "%", format_fixed(lp_acre / n, 2),
                   format_fixed(naive_acre / n, 2),
                   format_fixed((naive_acre - lp_acre) / n, 2)});
  }
  table.render_text(std::cout);
  table.save_csv("bench_results/ablation_latticeness.csv");
  exp::save_observability("bench_results/ablation_latticeness");
  std::cout << "\nExpected shape (paper §III-B): as organic grows, the path-rank threshold\n"
               "increases and the naive-vs-LP gap widens.\n";
  return 0;
}
