// Microbenchmarks for the simplex solver on covering LPs of increasing
// size (the LP-PathCover inner loop), plus the tall, path-like shape the
// attack tables actually pose.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/rng.hpp"
#include "graph/yen.hpp"
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

/// The shape of the Table II LPs (about 100 rows over 46 columns): more
/// rows than columns, each row a path.  The rows are the `rows` shortest
/// corner-to-corner paths of a side x side two-way grid, and the columns
/// the streets they use, so rows share long runs of columns the way the
/// attack's constraint paths do.
CoveringProblem path_like_covering_lp(std::size_t side, std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  DiGraph g;
  std::vector<double> weights;
  const auto node = [side](std::size_t i, std::size_t j) {
    return NodeId(static_cast<std::uint32_t>(i * side + j));
  };
  const auto street = [&](NodeId u, NodeId v) {
    g.add_edge(u, v);
    weights.push_back(rng.uniform(1.0, 2.0));
    g.add_edge(v, u);
    weights.push_back(rng.uniform(1.0, 2.0));
  };
  for (std::size_t i = 0; i < side * side; ++i) {
    g.add_node(static_cast<double>(i % side), static_cast<double>(i / side));
  }
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      if (j + 1 < side) street(node(i, j), node(i, j + 1));
      if (i + 1 < side) street(node(i, j), node(i + 1, j));
    }
  }
  g.finalize();

  CoveringProblem lp;
  std::vector<std::size_t> column(g.num_edges(), SIZE_MAX);
  for (const Path& path : yen_ksp(g, weights, node(0, 0), node(side - 1, side - 1), rows)) {
    std::vector<std::size_t> set;
    for (const EdgeId e : path.edges) {
      if (column[e.value()] == SIZE_MAX) {
        column[e.value()] = lp.costs.size();
        lp.costs.push_back(rng.uniform(0.5, 4.0));
      }
      set.push_back(column[e.value()]);
    }
    lp.sets.push_back(std::move(set));
  }
  return lp;
}

void solve_repeatedly(benchmark::State& state, const CoveringProblem& lp) {
  for (auto _ : state) {
    const auto result = solve_lp(lp);
    if (result.status != LpStatus::Optimal) state.SkipWithError("LP not optimal");
    benchmark::DoNotOptimize(result.objective);
  }
}

void BM_SimplexCoveringLp(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  const auto rows = static_cast<std::size_t>(state.range(1));
  solve_repeatedly(state, random_covering_lp(vars, rows, 42));
}

void BM_SimplexPathLikeLp(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto rows = static_cast<std::size_t>(state.range(1));
  solve_repeatedly(state, path_like_covering_lp(side, rows, 42));
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
BENCHMARK(BM_SimplexPathLikeLp)->Args({5, 100})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoveringLpWithRounding)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoveringGreedy)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);
