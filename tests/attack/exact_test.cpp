#include "attack/exact.hpp"

#include <gtest/gtest.h>

#include "attack/algorithms.hpp"
#include "attack/verify.hpp"
#include "graph/yen.hpp"
#include "lp/covering.hpp"
#include "test_util.hpp"

namespace mts::attack {
namespace {

using test::Diamond;

TEST(ExactCover, MatchesBruteForceOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed);
    CoveringProblem problem;
    const std::size_t n = 12;
    for (std::size_t j = 0; j < n; ++j) problem.costs.push_back(rng.uniform(0.5, 3.0));
    for (std::size_t i = 0; i < 7; ++i) {
      std::vector<std::size_t> set;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.3)) set.push_back(j);
      }
      if (set.empty()) set.push_back(rng.uniform_index(n));
      problem.sets.push_back(std::move(set));
    }

    // Brute force over all 2^12 subsets.
    double optimum = 1e18;
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      double cost = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (mask & (1u << j)) cost += problem.costs[j];
      }
      if (cost >= optimum) continue;
      bool ok = true;
      for (const auto& set : problem.sets) {
        bool covered = false;
        for (std::size_t j : set) covered |= (mask & (1u << j)) != 0;
        if (!covered) {
          ok = false;
          break;
        }
      }
      if (ok) optimum = cost;
    }

    const auto exact = solve_covering_exact(problem);
    ASSERT_TRUE(exact.feasible) << "seed " << seed;
    EXPECT_TRUE(exact.proven_optimal) << "seed " << seed;
    EXPECT_NEAR(exact.cost, optimum, 1e-9) << "seed " << seed;
  }
}

TEST(ExactCover, EmptySetInfeasible) {
  CoveringProblem problem;
  problem.costs = {1.0};
  problem.sets = {{}};
  EXPECT_FALSE(solve_covering_exact(problem).feasible);
}

TEST(ExactCover, NoConstraintsIsFree) {
  CoveringProblem problem;
  problem.costs = {1.0, 2.0};
  const auto exact = solve_covering_exact(problem);
  ASSERT_TRUE(exact.feasible);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_TRUE(exact.chosen.empty());
}

TEST(ExactAttack, DiamondOptimum) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  ForcePathCutProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = costs;
  problem.source = d.s;
  problem.target = d.t;
  problem.p_star = Path{{d.st}, 4.0};

  const auto exact = run_exact_attack(problem);
  ASSERT_EQ(exact.status, AttackStatus::Success);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_DOUBLE_EQ(exact.total_cost, 2.0);
  EXPECT_TRUE(verify_attack(problem, exact.removed_edges).ok);
}

TEST(ExactAttack, CheapCutBeatsLightEdges) {
  // The asymmetric-cost diamond from the algorithms test: exact must find
  // the cost-2 cut even though the naive edge choice costs 11.
  DiGraph g;
  const NodeId s = g.add_node();
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId t = g.add_node();
  const EdgeId sa = g.add_edge(s, a);
  const EdgeId at = g.add_edge(a, t);
  const EdgeId sb = g.add_edge(s, b);  // cheap cut candidate
  const EdgeId bt = g.add_edge(b, t);
  const EdgeId st = g.add_edge(s, t);
  g.finalize();
  const std::vector<double> weights = {0.5, 0.5, 1.5, 1.5, 4.0};
  std::vector<double> costs(g.num_edges(), 1.0);
  costs[sa.value()] = 10.0;
  costs[bt.value()] = 9.0;

  ForcePathCutProblem problem;
  problem.graph = &g;
  problem.weights = weights;
  problem.costs = costs;
  problem.source = s;
  problem.target = t;
  problem.p_star = Path{{st}, 4.0};
  const auto exact = run_exact_attack(problem);
  ASSERT_EQ(exact.status, AttackStatus::Success);
  EXPECT_DOUBLE_EQ(exact.total_cost, 2.0);  // cut at + sb
  (void)at;
  (void)sb;
}

TEST(ExactAttack, NeverCostlierThanApproximations) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(20, 80, rng);
    const NodeId s(0);
    const NodeId t(19);
    const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 8);
    if (ranked.size() < 8) continue;
    std::vector<double> costs;
    for (std::size_t i = 0; i < wg.g.num_edges(); ++i) costs.push_back(rng.uniform(0.5, 3.0));

    ForcePathCutProblem problem;
    problem.graph = &wg.g;
    problem.weights = wg.weights;
    problem.costs = costs;
    problem.source = s;
    problem.target = t;
    problem.p_star = ranked[7];
    problem.seed_paths.assign(ranked.begin(), ranked.begin() + 7);

    const auto exact = run_exact_attack(problem);
    ASSERT_EQ(exact.status, AttackStatus::Success) << "seed " << seed;
    EXPECT_TRUE(verify_attack(problem, exact.removed_edges).ok) << "seed " << seed;
    for (Algorithm algorithm : kAllAlgorithms) {
      const auto approx = run_attack(algorithm, problem);
      ASSERT_EQ(approx.status, AttackStatus::Success);
      EXPECT_LE(exact.total_cost, approx.total_cost + 1e-9)
          << "seed " << seed << " vs " << to_string(algorithm);
    }
  }
}

TEST(ExactAttack, BudgetSemantics) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  ForcePathCutProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = costs;
  problem.source = d.s;
  problem.target = d.t;
  problem.p_star = Path{{d.st}, 4.0};
  problem.budget = 1.0;
  EXPECT_EQ(run_exact_attack(problem).status, AttackStatus::BudgetExceeded);
}

TEST(ExactAttack, InfeasibleWhenFullyProtected) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  ForcePathCutProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = costs;
  problem.source = d.s;
  problem.target = d.t;
  problem.p_star = Path{{d.st}, 4.0};
  problem.protected_edges.assign(d.wg.g.num_edges(), 1);
  EXPECT_EQ(run_exact_attack(problem).status, AttackStatus::Infeasible);
}

}  // namespace
}  // namespace mts::attack
