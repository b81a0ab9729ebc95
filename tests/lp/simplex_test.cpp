#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

TEST(Simplex, TrivialLowerBoundedMin) {
  // min 3x0 + 5x1 s.t. x0 + x1 >= 1, x >= 0  ->  x = (1, 0), objective 3.
  CoveringProblem lp;
  lp.costs = {3.0, 5.0};
  lp.sets = {{0, 1}};
  const auto result = solve_lp(lp);
  ASSERT_EQ(result.status, LpStatus::Optimal);
  EXPECT_NEAR(result.objective, 3.0, 1e-9);
  EXPECT_NEAR(result.x[0], 1.0, 1e-9);
  EXPECT_NEAR(result.x[1], 0.0, 1e-9);
}

TEST(Simplex, InfeasibleDetected) {
  // An empty set is a row nothing can cover: sum over {} of x >= 1.
  CoveringProblem lp;
  lp.costs = {1.0};
  lp.sets = {{0}, {}};
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  // min -x with only x >= 1.
  CoveringProblem lp;
  lp.costs = {-1.0};
  lp.sets = {{0}};
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // The same covering row three times over: every vertex is degenerate.
  CoveringProblem lp;
  lp.costs = {1.0, 1.0};
  lp.sets = {{0, 1}, {0, 1}, {0, 1}};
  const auto result = solve_lp(lp);
  ASSERT_EQ(result.status, LpStatus::Optimal);
  EXPECT_NEAR(result.objective, 1.0, 1e-9);
}

TEST(Simplex, RejectsBadIndices) {
  CoveringProblem lp;
  lp.costs = {1.0};
  lp.sets = {{3}};
  EXPECT_THROW(solve_lp(lp), PreconditionViolation);
}

TEST(Simplex, EmptyConstraintsOptimalAtZero) {
  CoveringProblem lp;
  lp.costs = {1.0, 2.0, 3.0};
  const auto result = solve_lp(lp);
  ASSERT_EQ(result.status, LpStatus::Optimal);
  EXPECT_NEAR(result.objective, 0.0, 1e-12);
}

TEST(Simplex, SolutionSatisfiesAllConstraintsOnRandomCoveringLps) {
  // Random set-cover LPs: verify feasibility and that the objective is a
  // valid lower bound for the all-ones solution.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::size_t n = 12;
    CoveringProblem lp;
    for (std::size_t j = 0; j < n; ++j) lp.costs.push_back(rng.uniform(0.5, 3.0));
    const std::size_t rows = 6;
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<std::size_t> set;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.4)) set.push_back(j);
      }
      if (set.empty()) set.push_back(rng.uniform_index(n));
      lp.sets.push_back(std::move(set));
    }
    const auto result = solve_lp(lp);
    ASSERT_EQ(result.status, LpStatus::Optimal) << "seed " << seed;

    double all_ones = 0.0;
    for (double c : lp.costs) all_ones += c;
    EXPECT_LE(result.objective, all_ones + 1e-9);
    for (const auto& set : lp.sets) {
      double lhs = 0.0;
      for (std::size_t j : set) lhs += result.x[j];
      EXPECT_GE(lhs, 1.0 - 1e-7) << "seed " << seed;
    }
    for (double x : result.x) EXPECT_GE(x, -1e-9);
  }
}

TEST(Simplex, TableauInvariantsHoldAcrossRandomCoverLps) {
  // With check_invariants on, every pivot validates the basis (unit
  // columns, zero basic reduced costs, non-negative RHS); a corrupt
  // tableau throws InvariantViolation instead of returning garbage.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.uniform_index(8);
    CoveringProblem lp;
    for (std::size_t j = 0; j < n; ++j) lp.costs.push_back(rng.uniform(0.5, 3.0));
    const std::size_t rows = 2 + rng.uniform_index(6);
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<std::size_t> set;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.5)) set.push_back(j);
      }
      if (set.empty()) set.push_back(rng.uniform_index(n));
      lp.sets.push_back(std::move(set));
    }

    LpOptions checked;
    checked.check_invariants = true;
    const auto audited = solve_lp(lp, checked);
    const auto plain = solve_lp(lp);
    ASSERT_EQ(audited.status, LpStatus::Optimal) << "trial " << trial;
    EXPECT_EQ(audited.status, plain.status);
    EXPECT_NEAR(audited.objective, plain.objective, 1e-9) << "trial " << trial;
  }
}

/// Independent oracle: the minimum of c^T x over the vertices of
/// {x : sum_{j in S_i} x_j >= 1, x >= 0}.  Every choice of n tight
/// constraints among the m rows and the n bounds x_j >= 0 is solved by
/// Gaussian elimination; nonsingular, feasible solutions are the vertices.
/// With c >= 0 the region is pointed and the LP optimum is at one of them.
double min_vertex_cost(const CoveringProblem& lp) {
  const std::size_t n = lp.costs.size();
  const std::size_t m = lp.sets.size();
  // Constraint k < m is row k (a_k . x >= 1); k >= m is x_{k-m} >= 0.
  std::vector<std::vector<double>> a(m + n, std::vector<double>(n, 0.0));
  std::vector<double> b(m + n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j : lp.sets[i]) a[i][j] += 1.0;
    b[i] = 1.0;
  }
  for (std::size_t j = 0; j < n; ++j) a[m + j][j] = 1.0;

  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 0; mask < (1u << (m + n)); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) != n) continue;
    // Augmented n x (n+1) system of the chosen constraints held tight.
    std::vector<std::vector<double>> sys;
    for (std::size_t k = 0; k < m + n; ++k) {
      if (!(mask & (1u << k))) continue;
      sys.push_back(a[k]);
      sys.back().push_back(b[k]);
    }
    bool singular = false;
    for (std::size_t col = 0; col < n && !singular; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < n; ++r) {
        if (std::abs(sys[r][col]) > std::abs(sys[pivot][col])) pivot = r;
      }
      if (std::abs(sys[pivot][col]) < 1e-12) {
        singular = true;
        break;
      }
      std::swap(sys[col], sys[pivot]);
      for (std::size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const double factor = sys[r][col] / sys[col][col];
        for (std::size_t c = col; c <= n; ++c) sys[r][c] -= factor * sys[col][c];
      }
    }
    if (singular) continue;
    std::vector<double> x(n);
    for (std::size_t j = 0; j < n; ++j) x[j] = sys[j][n] / sys[j][j];
    bool feasible = true;
    for (std::size_t k = 0; k < m + n && feasible; ++k) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) lhs += a[k][j] * x[j];
      feasible = lhs >= b[k] - 1e-9;
    }
    if (!feasible) continue;
    double cost = 0.0;
    for (std::size_t j = 0; j < n; ++j) cost += lp.costs[j] * x[j];
    best = std::min(best, cost);
  }
  return best;
}

TEST(Simplex, MatchesBruteForceVertexEnumeration) {
  Rng rng(2026);
  constexpr int kInstances = 250;
  for (int trial = 0; trial < kInstances; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);
    const std::size_t m = 1 + rng.uniform_index(6);
    // Half the instances use unit costs: the degenerate case, with many
    // tied vertices, that the attacks' UNIFORM cost model poses.
    const bool unit = trial % 2 == 0;
    CoveringProblem lp;
    for (std::size_t j = 0; j < n; ++j) lp.costs.push_back(unit ? 1.0 : rng.uniform(0.5, 3.0));
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<std::size_t> set;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.4)) set.push_back(j);
      }
      if (set.empty()) set.push_back(rng.uniform_index(n));
      lp.sets.push_back(std::move(set));
    }
    const auto result = solve_lp(lp);
    ASSERT_EQ(result.status, LpStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(result.objective, min_vertex_cost(lp), 1e-9) << "trial " << trial;
  }
}

/// Multi-row instance: phase 1 has several artificials to drive out, so
/// one pivot cannot possibly finish feasibility.
CoveringProblem covering_like_lp() {
  CoveringProblem lp;
  lp.costs = {2.0, 2.0, 1.5, 1.5};
  lp.sets = {{0, 2}, {0, 1}, {1, 3}};
  return lp;
}

// Iteration limits are forced by arming the `lp.pivot` fault point with
// the `limit` action.  It counts one hit per pricing step: each pivot, plus
// one optimality check at the end of each phase.
TEST(Simplex, IterationLimitReportsPhaseOne) {
  const test::ScopedFault limit("lp.pivot", 2, fault::Action::Limit);
  const auto result = solve_lp(covering_like_lp());
  ASSERT_EQ(result.status, LpStatus::IterationLimit);
  EXPECT_EQ(result.limit_phase, 1);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(Simplex, IterationLimitReportsPhaseTwo) {
  // Phase 1 of covering_like_lp takes kPhaseOnePivots pivots plus its
  // optimality check, so the hit after those is phase 2's first.
  constexpr std::size_t kPhaseOnePivots = 4;
  const test::ScopedFault limit("lp.pivot", kPhaseOnePivots + 2, fault::Action::Limit);
  const auto result = solve_lp(covering_like_lp());
  ASSERT_EQ(result.status, LpStatus::IterationLimit);
  EXPECT_EQ(result.limit_phase, 2);
  EXPECT_EQ(result.iterations, kPhaseOnePivots);
}

// `stall` at `lp.pivot` sleeps fault::kStallMillis, then the solve goes on
// exactly as if nothing were armed.
TEST(Simplex, StallFaultSleepsThenSolvesUnchanged) {
  const auto unarmed = solve_lp(covering_like_lp());
  const test::ScopedMetrics metrics;
  const test::ScopedFault stall("lp.pivot", 1, fault::Action::Stall);
  const Stopwatch clock;
  const auto stalled = solve_lp(covering_like_lp());
  EXPECT_GE(clock.seconds() * 1000.0, fault::kStallMillis);
  EXPECT_EQ(stalled.status, unarmed.status);
  EXPECT_EQ(stalled.objective, unarmed.objective);
  EXPECT_EQ(stalled.x, unarmed.x);
  EXPECT_EQ(stalled.iterations, unarmed.iterations);
  EXPECT_EQ(metrics.counter("fault.injected"), 1u);
}

TEST(Simplex, WorkBudgetChargesPivotsAndThrows) {
  WorkBudget budget;
  budget.max_lp_pivots = 2;
  LpOptions options;
  options.budget = &budget;
  EXPECT_THROW(solve_lp(covering_like_lp(), options), BudgetExhausted);
  EXPECT_GT(budget.lp_pivots, budget.max_lp_pivots);

  // The same solve fits comfortably under a generous cap and charges its
  // true pivot count.
  WorkBudget roomy;
  roomy.max_lp_pivots = 10000;
  LpOptions relaxed;
  relaxed.budget = &roomy;
  const auto result = solve_lp(covering_like_lp(), relaxed);
  ASSERT_EQ(result.status, LpStatus::Optimal);
  // One charge per pivot: the budget's count is the solve's.
  EXPECT_EQ(roomy.lp_pivots, result.iterations);
}

}  // namespace
}  // namespace mts
