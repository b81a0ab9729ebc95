#include "attack/algorithms.hpp"

#include <gtest/gtest.h>

#include "attack/verify.hpp"
#include "core/error.hpp"
#include "graph/yen.hpp"
#include "test_util.hpp"

namespace mts::attack {
namespace {

using test::Diamond;

ForcePathCutProblem make_problem(const DiGraph& g, std::span<const double> weights,
                                 std::span<const double> costs, NodeId s, NodeId t,
                                 Path p_star) {
  ForcePathCutProblem problem;
  problem.graph = &g;
  problem.weights = weights;
  problem.costs = costs;
  problem.source = s;
  problem.target = t;
  problem.p_star = std::move(p_star);
  return problem;
}

class AllAlgorithms : public ::testing::TestWithParam<Algorithm> {};

INSTANTIATE_TEST_SUITE_P(Attack, AllAlgorithms, ::testing::ValuesIn(kAllAlgorithms),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST_P(AllAlgorithms, ForcesSlowDiamondArm) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  const auto problem =
      make_problem(d.wg.g, d.wg.weights, costs, d.s, d.t, Path{{d.st}, 4.0});
  const auto result = run_attack(GetParam(), problem);
  ASSERT_EQ(result.status, AttackStatus::Success);
  // Both cheaper arms must be broken: at least one edge from each.
  EXPECT_EQ(result.num_removed(), 2u);
  EXPECT_TRUE(verify_attack(problem, result.removed_edges).ok);
}

TEST_P(AllAlgorithms, NeverRemovesPStarEdges) {
  auto wg = test::make_grid(4, 4, 1.0, 1.37);
  const NodeId s(0);
  const NodeId t(15);
  const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 12);
  ASSERT_GE(ranked.size(), 12u);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  auto problem = make_problem(wg.g, wg.weights, costs, s, t, ranked[11]);
  problem.seed_paths.assign(ranked.begin(), ranked.begin() + 11);

  const auto result = run_attack(GetParam(), problem);
  ASSERT_EQ(result.status, AttackStatus::Success);
  for (EdgeId removed : result.removed_edges) {
    for (EdgeId keep : problem.p_star.edges) EXPECT_NE(removed, keep);
  }
  EXPECT_TRUE(verify_attack(problem, result.removed_edges).ok);
}

TEST_P(AllAlgorithms, AlreadyExclusiveNeedsNoRemovals) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  const auto problem =
      make_problem(d.wg.g, d.wg.weights, costs, d.s, d.t, Path{{d.sa, d.at}, 2.0});
  const auto result = run_attack(GetParam(), problem);
  EXPECT_EQ(result.status, AttackStatus::Success);
  EXPECT_EQ(result.num_removed(), 0u);
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
}

TEST_P(AllAlgorithms, BudgetZeroFailsWhenCutNeeded) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  auto problem = make_problem(d.wg.g, d.wg.weights, costs, d.s, d.t, Path{{d.st}, 4.0});
  problem.budget = 0.5;
  const auto result = run_attack(GetParam(), problem);
  EXPECT_EQ(result.status, AttackStatus::BudgetExceeded);
}

TEST_P(AllAlgorithms, SucceedsOnTiedWeights) {
  // Perfect grid with all-equal weights: massive tie structure.
  auto wg = test::make_grid(3, 3);
  const NodeId s(0);
  const NodeId t(8);
  const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 8);
  ASSERT_GE(ranked.size(), 8u);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  auto problem = make_problem(wg.g, wg.weights, costs, s, t, ranked[7]);
  problem.seed_paths.assign(ranked.begin(), ranked.begin() + 7);
  const auto result = run_attack(GetParam(), problem);
  ASSERT_EQ(result.status, AttackStatus::Success) << to_string(result.status);
  EXPECT_TRUE(verify_attack(problem, result.removed_edges).ok);
}

TEST_P(AllAlgorithms, RandomGraphsAlwaysVerified) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(25, 100, rng);
    const NodeId s(0);
    const NodeId t(24);
    const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 10);
    if (ranked.size() < 10) continue;
    std::vector<double> costs;
    for (std::size_t i = 0; i < wg.g.num_edges(); ++i) costs.push_back(rng.uniform(0.5, 3.0));
    auto problem = make_problem(wg.g, wg.weights, costs, s, t, ranked[9]);
    problem.seed_paths.assign(ranked.begin(), ranked.begin() + 9);
    const auto result = run_attack(GetParam(), problem);
    ASSERT_EQ(result.status, AttackStatus::Success) << "seed " << seed;
    const auto verdict = verify_attack(problem, result.removed_edges);
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.reason;
    EXPECT_GT(result.oracle_calls, 0u);
  }
}

TEST(PathCoverComparison, LpNeverWorseThanNaiveOnDiamondChain) {
  // Chain of diamonds where GreedyEdge picks the lightest edge (which is
  // expensive to remove) while cover-based methods pick the cheap cut.
  DiGraph g;
  const NodeId s = g.add_node();
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId t = g.add_node();
  const EdgeId sa = g.add_edge(s, a);
  const EdgeId at = g.add_edge(a, t);
  const EdgeId sb = g.add_edge(s, b);
  const EdgeId bt = g.add_edge(b, t);
  const EdgeId st = g.add_edge(s, t);
  g.finalize();
  const std::vector<double> weights = {0.5, 0.5, 1.5, 1.5, 4.0};
  // The light edge sa is very expensive to cut; at is cheap.
  std::vector<double> costs(g.num_edges(), 1.0);
  costs[sa.value()] = 10.0;
  costs[at.value()] = 1.0;
  costs[sb.value()] = 1.0;
  costs[bt.value()] = 9.0;

  auto problem = make_problem(g, weights, costs, s, t, Path{{st}, 4.0});
  const auto lp = run_attack(Algorithm::LpPathCover, problem);
  const auto greedy_cover = run_attack(Algorithm::GreedyPathCover, problem);
  const auto greedy_edge = run_attack(Algorithm::GreedyEdge, problem);
  ASSERT_EQ(lp.status, AttackStatus::Success);
  ASSERT_EQ(greedy_cover.status, AttackStatus::Success);
  ASSERT_EQ(greedy_edge.status, AttackStatus::Success);
  EXPECT_DOUBLE_EQ(lp.total_cost, 2.0);           // cut at + sb
  EXPECT_DOUBLE_EQ(greedy_cover.total_cost, 2.0);
  EXPECT_DOUBLE_EQ(greedy_edge.total_cost, 11.0);  // lightest edges: sa, sb
  EXPECT_LE(lp.lp_lower_bound, lp.total_cost + 1e-9);
}

TEST(RunAttack, RejectsSizeMismatches) {
  Diamond d;
  std::vector<double> short_costs = {1.0};
  ForcePathCutProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = short_costs;
  problem.source = d.s;
  problem.target = d.t;
  problem.p_star = Path{{d.st}, 4.0};
  EXPECT_THROW(run_attack(Algorithm::GreedyEdge, problem), PreconditionViolation);
}

TEST(RunAttack, SeedPathsSpeedUpPathCover) {
  auto wg = test::make_grid(5, 5, 1.0, 1.29);
  const NodeId s(0);
  const NodeId t(24);
  const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 20);
  ASSERT_GE(ranked.size(), 20u);
  std::vector<double> costs(wg.g.num_edges(), 1.0);

  auto seeded = make_problem(wg.g, wg.weights, costs, s, t, ranked[19]);
  seeded.seed_paths.assign(ranked.begin(), ranked.begin() + 19);
  auto unseeded = make_problem(wg.g, wg.weights, costs, s, t, ranked[19]);

  const auto with_seeds = run_attack(Algorithm::GreedyPathCover, seeded);
  const auto without_seeds = run_attack(Algorithm::GreedyPathCover, unseeded);
  ASSERT_EQ(with_seeds.status, AttackStatus::Success);
  ASSERT_EQ(without_seeds.status, AttackStatus::Success);
  // Seeds replace oracle discoveries one-for-one (or better).
  EXPECT_LE(with_seeds.oracle_calls, without_seeds.oracle_calls);
  EXPECT_TRUE(verify_attack(seeded, with_seeds.removed_edges).ok);
  EXPECT_TRUE(verify_attack(unseeded, without_seeds.removed_edges).ok);
}

TEST(RunAttack, ResultsAreDeterministicForFixedSeed) {
  auto wg = test::make_grid(4, 4, 1.0, 1.21);
  const NodeId s(0);
  const NodeId t(15);
  const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 10);
  ASSERT_GE(ranked.size(), 10u);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  auto problem = make_problem(wg.g, wg.weights, costs, s, t, ranked[9]);
  problem.seed_paths.assign(ranked.begin(), ranked.begin() + 9);

  AttackOptions options;
  options.rng_seed = 77;
  const auto a = run_attack(Algorithm::LpPathCover, problem, options);
  const auto b = run_attack(Algorithm::LpPathCover, problem, options);
  EXPECT_EQ(a.removed_edges, b.removed_edges);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
}

TEST_P(AllAlgorithms, TinyWorkBudgetYieldsStructuredExhaustion) {
  // A one-edge Dijkstra cap cannot even finish the first oracle query; the
  // exhaustion must surface as a structured status, never an exception.
  auto wg = test::make_grid(4, 4, 1.0, 1.37);
  const NodeId s(0);
  const NodeId t(15);
  const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 8);
  ASSERT_GE(ranked.size(), 8u);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  const auto problem = make_problem(wg.g, wg.weights, costs, s, t, ranked[7]);

  WorkBudget budget;
  budget.max_edges_scanned = 1;
  AttackOptions options;
  options.budget = &budget;
  const auto result = run_attack(GetParam(), problem, options);
  EXPECT_EQ(result.status, AttackStatus::BudgetExhausted);
  EXPECT_STREQ(to_string(result.status), "budget-exhausted");
  EXPECT_TRUE(result.removed_edges.empty());
}

}  // namespace
}  // namespace mts::attack
