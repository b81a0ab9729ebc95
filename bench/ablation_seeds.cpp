// Ablation — seed stability: our cities are synthetic, so every headline
// number should be robust across generator realizations.  Reports the
// across-seed spread of ANER/ACRE (GreedyPathCover, the paper's
// recommended algorithm) and of the Table X threshold, per city.
#include <iostream>

#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "core/stats.hpp"
#include "exp/table_runner.hpp"

int main() {
  using namespace mts;
  using attack::Algorithm;
  using attack::CostType;

  const auto env = BenchEnv::from_environment();
  env.print_run_header("ablation_seeds");
  const int trials = std::max(4, env.trials / 3);
  const std::uint64_t seeds[] = {env.seed, env.seed + 101, env.seed + 202};

  Table table("Ablation — across-seed stability (GreedyPathCover, TIME, UNIFORM, " +
                  std::to_string(trials) + " scenarios x " + std::to_string(std::size(seeds)) +
                  " seeds)",
              {"City", "ANER Mean", "ANER Spread", "ACRE Mean", "ACRE Spread",
               "Incr-to-100th Mean", "Incr Spread"});

  for (citygen::City city : citygen::kAllCities) {
    RunningStats aner;
    RunningStats acre;
    RunningStats incr;
    for (std::uint64_t seed : seeds) {
      exp::RunConfig config;
      config.city = city;
      config.scale = env.scale;
      config.weight = attack::WeightType::Time;
      config.trials = trials;
      config.path_rank = std::min(env.path_rank, 100);
      config.seed = seed;
      const auto result = exp::run_city_table(config);
      const auto& cell = result.cell(Algorithm::GreedyPathCover, CostType::Uniform);
      if (cell.n == 0) continue;
      aner.add(cell.aner());
      acre.add(cell.acre());
      const auto threshold = exp::run_threshold_experiment(city, env.scale, trials, seed);
      if (threshold.n > 0) incr.add(threshold.avg_increase_100th);
    }
    if (aner.count() == 0) continue;
    table.add_row({citygen::to_string(city), format_fixed(aner.mean(), 2),
                   format_fixed(aner.max() - aner.min(), 2), format_fixed(acre.mean(), 2),
                   format_fixed(acre.max() - acre.min(), 2), format_fixed(incr.mean(), 2) + "%",
                   format_fixed(incr.max() - incr.min(), 2) + "%"});
  }
  table.render_text(std::cout);
  table.save_csv("bench_results/ablation_seeds.csv");
  exp::save_observability("bench_results/ablation_seeds");
  std::cout << "\n'Spread' is max - min over generator seeds: how much of each headline\n"
               "number is city shape vs. one particular realization.\n";
  return 0;
}
