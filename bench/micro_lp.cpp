// Microbenchmarks for the simplex solver on covering LPs of increasing
// size (the LP-PathCover inner loop).
#include <benchmark/benchmark.h>

#include "core/rng.hpp"
#include "lp/covering.hpp"
#include "lp/simplex.hpp"

namespace {

using namespace mts;

CoveringProblem random_covering_lp(std::size_t vars, std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  CoveringProblem lp;
  for (std::size_t j = 0; j < vars; ++j) lp.costs.push_back(rng.uniform(0.5, 4.0));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::size_t> set;
    for (std::size_t j = 0; j < vars; ++j) {
      if (rng.chance(0.08)) set.push_back(j);
    }
    if (set.empty()) set.push_back(rng.uniform_index(vars));
    lp.sets.push_back(std::move(set));
  }
  return lp;
}

void BM_SimplexCoveringLp(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  const auto rows = static_cast<std::size_t>(state.range(1));
  const auto lp = random_covering_lp(vars, rows, 42);
  for (auto _ : state) {
    const auto result = solve_lp(lp);
    if (result.status != LpStatus::Optimal) state.SkipWithError("LP not optimal");
    benchmark::DoNotOptimize(result.objective);
  }
}

void BM_CoveringLpWithRounding(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  CoveringProblem problem;
  for (std::size_t j = 0; j < n; ++j) problem.costs.push_back(rng.uniform(0.5, 4.0));
  for (std::size_t i = 0; i < n / 4; ++i) {
    std::vector<std::size_t> set;
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.1)) set.push_back(j);
    }
    if (set.empty()) set.push_back(rng.uniform_index(n));
    problem.sets.push_back(std::move(set));
  }
  for (auto _ : state) {
    Rng round_rng(13);
    const auto solution = solve_covering_lp(problem, round_rng);
    benchmark::DoNotOptimize(solution.cost);
  }
}

void BM_CoveringGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  CoveringProblem problem;
  for (std::size_t j = 0; j < n; ++j) problem.costs.push_back(rng.uniform(0.5, 4.0));
  for (std::size_t i = 0; i < n / 4; ++i) {
    std::vector<std::size_t> set;
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.1)) set.push_back(j);
    }
    if (set.empty()) set.push_back(rng.uniform_index(n));
    problem.sets.push_back(std::move(set));
  }
  for (auto _ : state) {
    const auto solution = solve_covering_greedy(problem);
    benchmark::DoNotOptimize(solution.cost);
  }
}

}  // namespace

BENCHMARK(BM_SimplexCoveringLp)->Args({50, 20})->Args({200, 60})->Args({800, 120})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoveringLpWithRounding)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoveringGreedy)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);
