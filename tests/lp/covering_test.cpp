#include "lp/covering.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

bool covers_everything(const CoveringProblem& problem, const std::vector<std::size_t>& chosen) {
  for (const auto& set : problem.sets) {
    bool covered = false;
    for (std::size_t j : set) {
      for (std::size_t c : chosen) {
        if (c == j) {
          covered = true;
          break;
        }
      }
      if (covered) break;
    }
    if (!covered) return false;
  }
  return true;
}

/// Exhaustive optimal cover for small instances.
double brute_force_optimum(const CoveringProblem& problem) {
  const std::size_t n = problem.costs.size();
  double best = 1e18;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<std::size_t> chosen;
    double cost = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (mask & (1u << j)) {
        chosen.push_back(j);
        cost += problem.costs[j];
      }
    }
    if (cost < best && covers_everything(problem, chosen)) best = cost;
  }
  return best;
}

CoveringProblem small_instance() {
  // Universe {0,1,2}; element 0 covers sets {0,1}, 1 covers {1,2},
  // 2 covers {0}, 3 covers {2}.
  CoveringProblem p;
  p.costs = {2.0, 2.0, 1.5, 1.5};
  p.sets = {{0, 2}, {0, 1}, {1, 3}};
  return p;
}

TEST(CoveringGreedy, FindsValidCover) {
  const auto problem = small_instance();
  const auto solution = solve_covering_greedy(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(covers_everything(problem, solution.chosen));
  EXPECT_GT(solution.cost, 0.0);
}

TEST(CoveringLp, FindsValidCoverWithLowerBound) {
  auto problem = small_instance();
  Rng rng(1);
  const auto solution = solve_covering_lp(problem, rng);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(covers_everything(problem, solution.chosen));
  EXPECT_LE(solution.lp_lower_bound, solution.cost + 1e-9);
  EXPECT_GE(solution.lp_lower_bound, 0.0);
}

TEST(Covering, EmptySetIsInfeasible) {
  CoveringProblem problem;
  problem.costs = {1.0};
  problem.sets = {{}};
  Rng rng(1);
  EXPECT_FALSE(solve_covering_greedy(problem).feasible);
  EXPECT_FALSE(solve_covering_lp(problem, rng).feasible);
}

TEST(Covering, NoConstraintsIsFreeCover) {
  CoveringProblem problem;
  problem.costs = {1.0, 2.0};
  Rng rng(1);
  const auto lp = solve_covering_lp(problem, rng);
  ASSERT_TRUE(lp.feasible);
  EXPECT_TRUE(lp.chosen.empty());
  EXPECT_DOUBLE_EQ(lp.cost, 0.0);
  const auto greedy = solve_covering_greedy(problem);
  ASSERT_TRUE(greedy.feasible);
  EXPECT_TRUE(greedy.chosen.empty());
}

TEST(Covering, SingleMandatoryElement) {
  CoveringProblem problem;
  problem.costs = {5.0, 1.0};
  problem.sets = {{0}};  // only element 0 covers the set
  Rng rng(1);
  const auto lp = solve_covering_lp(problem, rng);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.chosen, (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(lp.cost, 5.0);
}

TEST(Covering, LpNearOptimalOnRandomInstances) {
  int lp_optimal = 0;
  int greedy_optimal = 0;
  constexpr int kInstances = 20;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    Rng rng(seed);
    CoveringProblem problem;
    const std::size_t n = 10;
    for (std::size_t j = 0; j < n; ++j) problem.costs.push_back(rng.uniform(0.5, 3.0));
    const std::size_t rows = 6;
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<std::size_t> set;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.35)) set.push_back(j);
      }
      if (set.empty()) set.push_back(rng.uniform_index(n));
      problem.sets.push_back(std::move(set));
    }
    const double optimum = brute_force_optimum(problem);

    Rng round_rng(seed * 31);
    const auto lp = solve_covering_lp(problem, round_rng);
    const auto greedy = solve_covering_greedy(problem);
    ASSERT_TRUE(lp.feasible);
    ASSERT_TRUE(greedy.feasible);
    EXPECT_TRUE(covers_everything(problem, lp.chosen)) << "seed " << seed;
    EXPECT_TRUE(covers_everything(problem, greedy.chosen)) << "seed " << seed;
    // LP lower bound brackets the true optimum.
    EXPECT_LE(lp.lp_lower_bound, optimum + 1e-7) << "seed " << seed;
    EXPECT_GE(lp.cost, optimum - 1e-9) << "seed " << seed;
    if (lp.cost <= optimum + 1e-9) ++lp_optimal;
    if (greedy.cost <= optimum + 1e-9) ++greedy_optimal;
  }
  // PATHATTACK reports the LP approach optimal in >98% of instances; on
  // these tiny instances it should be optimal in the large majority.
  EXPECT_GE(lp_optimal, kInstances * 3 / 4);
  EXPECT_GE(greedy_optimal, kInstances / 2);
}

TEST(Covering, LpIterationLimitFallsBackToGreedy) {
  // An iteration limit forced after one pivot cannot finish phase 1, so the
  // solver degrades to the greedy cover and says so instead of failing the
  // whole attack.
  const auto problem = small_instance();
  Rng rng(1);
  const test::ScopedFault limit("lp.pivot", 2, fault::Action::Limit);
  const auto solution = solve_covering_lp(problem, rng);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(covers_everything(problem, solution.chosen));
  EXPECT_TRUE(solution.fallback_used);
  EXPECT_NE(solution.fallback_reason.find("iteration-limit"), std::string::npos)
      << solution.fallback_reason;
  EXPECT_NE(solution.fallback_reason.find("phase"), std::string::npos) << solution.fallback_reason;
  // No certified bound without an LP optimum.
  EXPECT_DOUBLE_EQ(solution.lp_lower_bound, 0.0);
  // The substituted cover is exactly the greedy one.
  const auto greedy = solve_covering_greedy(problem);
  EXPECT_EQ(solution.chosen, greedy.chosen);
  EXPECT_DOUBLE_EQ(solution.cost, greedy.cost);
}

TEST(Covering, PruneDropsRedundantElements) {
  // Greedy on this instance could take both 0 and 1; pruning keeps one.
  CoveringProblem problem;
  problem.costs = {1.0, 1.0};
  problem.sets = {{0, 1}};
  const auto greedy = solve_covering_greedy(problem);
  EXPECT_EQ(greedy.chosen.size(), 1u);
}

}  // namespace
}  // namespace mts
