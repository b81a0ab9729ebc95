// Tables II-VIII — one city x weight-type grid: the four Force Path Cut
// algorithms against the three cost models, reporting Avg Runtime / ANER /
// ACRE, with the paper's values printed alongside.
//
// Compile-time parameters (set per target in bench/CMakeLists.txt):
//   MTS_TABLE_CITY    Boston | SanFrancisco | Chicago | LosAngeles
//   MTS_TABLE_WEIGHT  Length | Time
//   MTS_TABLE_NUM     paper table number (2..8)
#include <cstring>
#include <iostream>

#include "core/budget.hpp"
#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "exp/paper_values.hpp"
#include "exp/table_runner.hpp"

int main(int argc, char** argv) {
  using namespace mts;
  using exp::RunConfig;

  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else {
      std::cerr << "usage: " << argv[0] << " [--resume]\n"
                << "  --resume  skip cells already in the MTS_CHECKPOINT journal\n";
      return 2;
    }
  }

  const auto env = BenchEnv::from_environment();
  const std::string base = "bench_results/table0" + std::to_string(MTS_TABLE_NUM);
  env.print_run_header("table0" + std::to_string(MTS_TABLE_NUM) + "_" +
                       citygen::to_string(citygen::City::MTS_TABLE_CITY));
  RunConfig config;
  config.city = citygen::City::MTS_TABLE_CITY;
  config.weight = attack::WeightType::MTS_TABLE_WEIGHT;
  config.scale = env.scale;
  config.trials = env.trials;
  config.path_rank = env.path_rank;
  config.seed = env.seed;
  config.work_budget = WorkBudget::from_environment();
  config.checkpoint_path = env.checkpoint;
  config.resume = resume;
  if (resume && config.checkpoint_path.empty()) {
    // --resume without MTS_CHECKPOINT: use the table's conventional journal.
    config.checkpoint_path = base + "_journal.jsonl";
  }

  const auto result = exp::run_city_table(config);
  auto table = exp::render_city_table(result);
  table.render_text(std::cout);
  table.save_csv(base + "_" + citygen::to_string(config.city) + "_" + to_string(config.weight) +
                 ".csv");
  exp::render_city_table_detailed(result).save_csv(base + "_detailed.csv");
  exp::save_json(result, base + ".json");
  exp::save_observability(base);

  // Paper comparison: shape, not absolute numbers (different hardware,
  // different substrate scale).
  Table cmp("Paper comparison (Table " + std::to_string(MTS_TABLE_NUM) + ")",
            {"Algorithm", "Cost", "ANER (ours)", "ANER (paper)", "ACRE (ours)", "ACRE (paper)"});
  for (attack::Algorithm algorithm : attack::kAllAlgorithms) {
    for (attack::CostType cost : attack::kAllCostTypes) {
      const auto paper = exp::paper_cell(config.city, config.weight, algorithm, cost);
      if (!paper) continue;
      const auto& cell = result.cell(algorithm, cost);
      cmp.add_row({to_string(algorithm), to_string(cost), format_fixed(cell.aner(), 2),
                   format_fixed(paper->aner, 2), format_fixed(cell.acre(), 2),
                   format_fixed(paper->acre, 2)});
    }
  }
  std::cout << '\n';
  cmp.render_text(std::cout);

  // Headline shape checks printed for EXPERIMENTS.md.
  const auto& lp_uniform = result.cell(attack::Algorithm::LpPathCover, attack::CostType::Uniform);
  const auto& gpc_uniform =
      result.cell(attack::Algorithm::GreedyPathCover, attack::CostType::Uniform);
  if (gpc_uniform.avg_runtime() > 0.0) {
    std::cout << "\nLP-PathCover / GreedyPathCover runtime ratio: "
              << format_fixed(lp_uniform.avg_runtime() / gpc_uniform.avg_runtime(), 2)
              << " (paper: ~5-10x)\n";
  }
  int failures = 0;
  for (attack::Algorithm a : attack::kAllAlgorithms) {
    for (attack::CostType c : attack::kAllCostTypes) {
      failures += result.cell(a, c).verification_failures;
    }
  }
  std::cout << "Scenarios: " << result.scenarios_run
            << ", verification failures: " << failures << '\n';
  return failures == 0 ? 0 : 1;
}
