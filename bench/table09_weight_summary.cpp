// Table IX — ANER and ACRE averaged across all cost types and algorithms,
// per city and weight type.  Also re-derives the §III-B headline: the
// naive-vs-LP attack-cost gap, Boston vs Chicago.
#include <iostream>

#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "exp/paper_values.hpp"
#include "exp/table_runner.hpp"

int main() {
  using namespace mts;
  using attack::Algorithm;
  using attack::CostType;
  using attack::WeightType;

  const auto env = BenchEnv::from_environment();
  env.print_run_header("table09_weight_summary");

  Table table("Table IX — Average ANER and ACRE across all city and weight type combinations",
              {"City", "Weight", "ANER", "ACRE", "ANER (paper)", "ACRE (paper)"});

  struct GapInput {
    double lp_acre = 0.0;
    double naive_acre = 0.0;
    int n = 0;
  };
  GapInput boston_gap;
  GapInput chicago_gap;

  for (citygen::City city : citygen::kAllCities) {
    for (WeightType weight : attack::kAllWeightTypes) {
      exp::RunConfig config;
      config.city = city;
      config.weight = weight;
      config.scale = env.scale;
      config.trials = env.trials;
      config.path_rank = env.path_rank;
      config.seed = env.seed;
      const auto result = exp::run_city_table(config);
      const auto summary = exp::summarize(result);
      const auto paper = exp::paper_table9(city, weight);
      table.add_row({citygen::to_string(city), to_string(weight),
                     format_fixed(summary.aner, 2), format_fixed(summary.acre, 2),
                     format_fixed(paper.aner, 2), format_fixed(paper.acre, 2)});

      GapInput* gap = city == citygen::City::Boston    ? &boston_gap
                      : city == citygen::City::Chicago ? &chicago_gap
                                                        : nullptr;
      if (gap != nullptr) {
        for (CostType cost : attack::kAllCostTypes) {
          gap->lp_acre += result.cell(Algorithm::LpPathCover, cost).acre();
          gap->naive_acre += (result.cell(Algorithm::GreedyEdge, cost).acre() +
                              result.cell(Algorithm::GreedyEig, cost).acre()) /
                             2.0;
          ++gap->n;
        }
      }
    }
  }
  table.render_text(std::cout);
  table.save_csv("bench_results/table09_weight_summary.csv");
  exp::save_observability("bench_results/table09_weight_summary");

  const double boston_delta = (boston_gap.naive_acre - boston_gap.lp_acre) / boston_gap.n;
  const double chicago_delta = (chicago_gap.naive_acre - chicago_gap.lp_acre) / chicago_gap.n;
  std::cout << "\nNaive-vs-LP average ACRE gap:  Boston " << format_fixed(boston_delta, 2)
            << ",  Chicago " << format_fixed(chicago_delta, 2) << '\n'
            << "Paper prose (§III-B) claims Boston 2.3 vs Chicago 1.4; recomputing the same\n"
               "aggregate from the paper's OWN Tables II-VII gives Boston ~1.4 vs Chicago\n"
               "~2.0 — the prose contradicts the tables.  Our measurements match the\n"
               "table-derived direction (lattice cities leave naive algorithms MORE room to\n"
               "overpay, because many near-optimal paths mean many wasted single-path cuts).\n"
               "See EXPERIMENTS.md for the full discussion.\n";
  return 0;
}
