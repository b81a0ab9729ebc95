#include "attack/oracle.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "graph/yen.hpp"
#include "test_util.hpp"

namespace mts::attack {
namespace {

using test::Diamond;

ForcePathCutProblem diamond_problem(const Diamond& d, const Path& p_star) {
  ForcePathCutProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = d.wg.weights;  // costs unused by the oracle
  problem.source = d.s;
  problem.target = d.t;
  problem.p_star = p_star;
  return problem;
}

TEST(Oracle, ReportsShorterPathAsViolating) {
  Diamond d;
  // Force the slowest path (direct s->t, length 4).
  const auto problem = diamond_problem(d, Path{{d.st}, 4.0});
  ExclusivityOracle oracle(problem);
  EdgeFilter filter(d.wg.g.num_edges());

  const auto violating = oracle.find_violating_path(filter);
  ASSERT_TRUE(violating.has_value());
  EXPECT_DOUBLE_EQ(violating->length, 2.0);  // the true shortest
}

TEST(Oracle, CertifiesExclusivityAfterCuts) {
  Diamond d;
  const auto problem = diamond_problem(d, Path{{d.st}, 4.0});
  ExclusivityOracle oracle(problem);
  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.sa);
  filter.remove(d.bt);
  EXPECT_FALSE(oracle.find_violating_path(filter).has_value());
  EXPECT_EQ(oracle.calls(), 1u);
}

TEST(Oracle, DetectsEqualLengthTie) {
  Diamond d;
  // Make the b-arm tie the a-arm at length 2, then force the a-arm.
  auto weights = d.wg.weights;
  weights[d.sb.value()] = 1.0;
  weights[d.bt.value()] = 1.0;
  ForcePathCutProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = weights;
  problem.costs = weights;
  problem.source = d.s;
  problem.target = d.t;
  problem.p_star = Path{{d.sa, d.at}, 2.0};

  ExclusivityOracle oracle(problem);
  EdgeFilter filter(d.wg.g.num_edges());
  const auto violating = oracle.find_violating_path(filter);
  ASSERT_TRUE(violating.has_value());  // tie means not exclusive
  EXPECT_NE(violating->edges, problem.p_star.edges);
  EXPECT_NEAR(violating->length, 2.0, 1e-12);

  filter.remove(d.sb);
  EXPECT_FALSE(oracle.find_violating_path(filter).has_value());
}

// `stall` at `oracle.solve` sleeps fault::kStallMillis, then the query
// answers exactly as if nothing were armed.
TEST(Oracle, StallFaultSleepsThenAnswersUnchanged) {
  Diamond d;
  const auto problem = diamond_problem(d, Path{{d.st}, 4.0});
  const EdgeFilter filter(d.wg.g.num_edges());
  const auto unarmed = ExclusivityOracle(problem).find_violating_path(filter);
  ASSERT_TRUE(unarmed.has_value());

  const test::ScopedMetrics metrics;
  const test::ScopedFault stall("oracle.solve", 1, fault::Action::Stall);
  const ExclusivityOracle oracle(problem);
  const Stopwatch clock;
  const auto stalled = oracle.find_violating_path(filter);
  EXPECT_GE(clock.seconds() * 1000.0, fault::kStallMillis);
  ASSERT_TRUE(stalled.has_value());
  EXPECT_EQ(stalled->edges, unarmed->edges);
  EXPECT_EQ(stalled->length, unarmed->length);
  EXPECT_EQ(metrics.counter("fault.injected"), 1u);
}

TEST(Oracle, PStarLengthComputedFromWeights) {
  Diamond d;
  const auto problem = diamond_problem(d, Path{{d.st}, 0.0 /* stale length */});
  ExclusivityOracle oracle(problem);
  EXPECT_DOUBLE_EQ(oracle.p_star_length(), 4.0);
}

TEST(Oracle, RejectsNonPath) {
  Diamond d;
  // Edges out of order: not a path.
  const auto problem = diamond_problem(d, Path{{d.at, d.sa}, 2.0});
  EXPECT_THROW(ExclusivityOracle{problem}, PreconditionViolation);
}

TEST(Oracle, RejectsEmptyPStar) {
  Diamond d;
  auto problem = diamond_problem(d, Path{});
  problem.target = d.s;
  EXPECT_THROW(ExclusivityOracle{problem}, PreconditionViolation);
}

TEST(Oracle, ThrowsIfPStarDamaged) {
  Diamond d;
  const auto problem = diamond_problem(d, Path{{d.st}, 4.0});
  ExclusivityOracle oracle(problem);
  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.st);  // removing p*'s own edge breaks the contract
  filter.remove(d.sa);
  filter.remove(d.sb);
  EXPECT_THROW(oracle.find_violating_path(filter), PreconditionViolation);
}

TEST(Oracle, MidRankPathOnGrid) {
  auto wg = test::make_grid(3, 3, 1.0, 1.3);
  const NodeId s(0);
  const NodeId t(8);
  const auto ranked = mts::yen_ksp(wg.g, wg.weights, s, t, 5);
  ASSERT_GE(ranked.size(), 5u);

  ForcePathCutProblem problem;
  problem.graph = &wg.g;
  problem.weights = wg.weights;
  problem.costs = wg.weights;
  problem.source = s;
  problem.target = t;
  problem.p_star = ranked[4];
  ExclusivityOracle oracle(problem);
  EdgeFilter filter(wg.g.num_edges());
  const auto violating = oracle.find_violating_path(filter);
  ASSERT_TRUE(violating.has_value());
  EXPECT_LE(violating->length, problem.p_star.length + 1e-9);
}

}  // namespace
}  // namespace mts::attack
