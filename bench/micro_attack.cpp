// Microbenchmarks for the four attack algorithms on a fixed scenario:
// the per-attack latency the paper's Avg Runtime columns measure.
#include <benchmark/benchmark.h>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "exp/scenario.hpp"

namespace {

using namespace mts;

struct AttackFixture {
  osm::RoadNetwork network;
  std::vector<double> weights;
  std::vector<double> costs;
  exp::Scenario scenario;
};

const AttackFixture& fixture() {
  static const AttackFixture f = [] {
    AttackFixture result{citygen::generate_city(citygen::City::Chicago, 0.5, 7), {}, {}, {}};
    result.weights = attack::make_weights(result.network, attack::WeightType::Time);
    result.costs = attack::make_costs(result.network, attack::CostType::Width);
    Rng rng(11);
    exp::ScenarioOptions options;
    options.path_rank = 50;
    auto scenario = exp::sample_scenario(result.network, result.weights, 0, rng, options);
    if (!scenario) throw Error("micro_attack: scenario sampling failed");
    result.scenario = std::move(*scenario);
    return result;
  }();
  return f;
}

void BM_Attack(benchmark::State& state, attack::Algorithm algorithm) {
  const auto& f = fixture();
  const auto problem = exp::make_problem(f.network.graph(), f.weights, f.costs, f.scenario);

  std::size_t removed = 0;
  for (auto _ : state) {
    const auto result = run_attack(algorithm, problem);
    removed = result.num_removed();
    benchmark::DoNotOptimize(result.total_cost);
  }
  state.SetLabel("removed=" + std::to_string(removed));
}

void BM_ScenarioYenPreprocessing(benchmark::State& state) {
  const auto& f = fixture();
  Rng rng(11);
  exp::ScenarioOptions options;
  options.path_rank = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto scenario = exp::sample_scenario(f.network, f.weights, 0, rng, options);
    benchmark::DoNotOptimize(scenario);
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Attack, lp_pathcover, attack::Algorithm::LpPathCover)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Attack, greedy_pathcover, attack::Algorithm::GreedyPathCover)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Attack, greedy_edge, attack::Algorithm::GreedyEdge)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Attack, greedy_eig, attack::Algorithm::GreedyEig)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScenarioYenPreprocessing)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);
