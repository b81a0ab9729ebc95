#include "attack/multi_victim.hpp"

#include <gtest/gtest.h>

#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "exp/scenario.hpp"
#include "graph/yen.hpp"
#include "test_util.hpp"

namespace mts::attack {
namespace {

using test::Diamond;

/// Verifies every victim's sub-instance against the shared cut.
void expect_all_forced(const MultiVictimProblem& problem, const MultiVictimResult& result) {
  for (std::size_t i = 0; i < problem.victims.size(); ++i) {
    ForcePathCutProblem sub;
    sub.graph = problem.graph;
    sub.weights = problem.weights;
    sub.costs = problem.costs;
    sub.source = problem.victims[i].source;
    sub.target = problem.victims[i].target;
    sub.p_star = problem.victims[i].p_star;
    const auto verdict = verify_attack(sub, result.removed_edges);
    EXPECT_TRUE(verdict.ok) << "victim " << i << ": " << verdict.reason;
    EXPECT_TRUE(result.victim_forced[i]);
  }
}

TEST(MultiVictim, SingleVictimMatchesSingleAttack) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  MultiVictimProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = costs;
  problem.victims.push_back({d.s, d.t, Path{{d.st}, 4.0}, {}});

  const auto result = run_multi_victim_attack(problem);
  ASSERT_EQ(result.status, AttackStatus::Success);
  EXPECT_EQ(result.removed_edges.size(), 2u);  // one edge per cheap arm
  expect_all_forced(problem, result);
}

TEST(MultiVictim, TwoIndependentVictimsShareOneCut) {
  // Two node-disjoint diamonds in one graph: the shared closure set must
  // force the slow arm in both, 2 removals each.
  test::WeightedGraph wg;
  struct DiamondIds {
    NodeId s, t;
    EdgeId st;
  };
  DiamondIds diamonds[2];
  for (auto& ids : diamonds) {
    const NodeId s = wg.g.add_node();
    const NodeId a = wg.g.add_node();
    const NodeId b = wg.g.add_node();
    const NodeId t = wg.g.add_node();
    wg.edge(s, a, 1.0);
    wg.edge(a, t, 1.0);
    wg.edge(s, b, 1.5);
    wg.edge(b, t, 1.5);
    ids = {s, t, wg.edge(s, t, 4.0)};
  }
  wg.g.finalize();
  std::vector<double> costs(wg.g.num_edges(), 1.0);

  MultiVictimProblem problem;
  problem.graph = &wg.g;
  problem.weights = wg.weights;
  problem.costs = costs;
  for (const auto& ids : diamonds) {
    problem.victims.push_back({ids.s, ids.t, Path{{ids.st}, 4.0}, {}});
  }

  const auto result = run_multi_victim_attack(problem);
  ASSERT_EQ(result.status, AttackStatus::Success) << to_string(result.status);
  expect_all_forced(problem, result);
  EXPECT_EQ(result.removed_edges.size(), 4u);
  EXPECT_DOUBLE_EQ(result.total_cost, 4.0);
}

TEST(MultiVictim, GridVictimsSucceedOrCertifyConflict) {
  // Victims from opposite corners to the same destination on a small grid
  // can genuinely conflict (one victim's p* is another's faster path);
  // the solver must either force both or certify infeasibility — never
  // crash or return an unverified cut.
  auto wg = test::make_grid(4, 4, 1.0, 1.33);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  const NodeId d(15);

  MultiVictimProblem problem;
  problem.graph = &wg.g;
  problem.weights = wg.weights;
  problem.costs = costs;
  for (std::uint32_t source : {0u, 3u}) {
    const auto ranked = yen_ksp(wg.g, wg.weights, NodeId(source), d, 6);
    ASSERT_GE(ranked.size(), 6u);
    Victim victim{NodeId(source), d, ranked[5], {}};
    victim.seed_paths.assign(ranked.begin(), ranked.begin() + 5);
    problem.victims.push_back(std::move(victim));
  }

  const auto result = run_multi_victim_attack(problem);
  if (result.status == AttackStatus::Success) {
    expect_all_forced(problem, result);
  } else {
    EXPECT_EQ(result.status, AttackStatus::Infeasible);
  }
}

TEST(MultiVictim, ConflictingChoicesAreInfeasible) {
  // Tie the diamond arms; victim 1 wants arm A forced, victim 2 wants arm
  // B forced, same (s, t): each victim's p* is the other's violating path
  // and neither can be removed.
  Diamond d;
  std::vector<double> weights = d.wg.weights;
  weights[d.sb.value()] = 1.0;
  weights[d.bt.value()] = 1.0;  // both arms length 2
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);

  MultiVictimProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = weights;
  problem.costs = costs;
  problem.victims.push_back({d.s, d.t, Path{{d.sa, d.at}, 2.0}, {}});
  problem.victims.push_back({d.s, d.t, Path{{d.sb, d.bt}, 2.0}, {}});

  const auto result = run_multi_victim_attack(problem);
  EXPECT_EQ(result.status, AttackStatus::Infeasible);
}

TEST(MultiVictim, BudgetExceededReported) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  MultiVictimProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = costs;
  problem.victims.push_back({d.s, d.t, Path{{d.st}, 4.0}, {}});
  problem.budget = 1.0;  // needs 2
  const auto result = run_multi_victim_attack(problem);
  EXPECT_EQ(result.status, AttackStatus::BudgetExceeded);
}

TEST(MultiVictim, RepeatedVictimGetsTheSingleVictimCut) {
  // s->x->a->t (3) and s->x->b->t (3.4) both beat p* = s->t (10).  One cut
  // edge s->x (cost 1.5) covers both; one edge per arm costs 2.  A victim
  // listed twice reports each violating path twice in one round, and the
  // second report must not buy an extra edge.
  test::WeightedGraph wg;
  const NodeId s = wg.g.add_node();
  const NodeId x = wg.g.add_node();
  const NodeId a = wg.g.add_node();
  const NodeId b = wg.g.add_node();
  const NodeId t = wg.g.add_node();
  const EdgeId sx = wg.edge(s, x, 1.0);
  wg.edge(x, a, 1.0);
  wg.edge(a, t, 1.0);
  wg.edge(x, b, 1.2);
  wg.edge(b, t, 1.2);
  const EdgeId st = wg.edge(s, t, 10.0);
  wg.g.finalize();
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  costs[sx.value()] = 1.5;

  MultiVictimProblem problem;
  problem.graph = &wg.g;
  problem.weights = wg.weights;
  problem.costs = costs;
  const Victim victim{s, t, Path{{st}, 10.0}, {}};
  problem.victims = {victim};
  const auto once = run_multi_victim_attack(problem);
  ASSERT_EQ(once.status, AttackStatus::Success) << to_string(once.status);
  EXPECT_EQ(once.removed_edges, std::vector<EdgeId>{sx});
  EXPECT_DOUBLE_EQ(once.total_cost, 1.5);

  problem.victims = {victim, victim};
  const auto twice = run_multi_victim_attack(problem);
  ASSERT_EQ(twice.status, AttackStatus::Success) << to_string(twice.status);
  EXPECT_EQ(twice.removed_edges, once.removed_edges);
  EXPECT_DOUBLE_EQ(twice.total_cost, 1.5);
  expect_all_forced(problem, twice);
}

TEST(MultiVictim, RejectsEmptyAndMismatched) {
  Diamond d;
  MultiVictimProblem problem;
  problem.graph = &d.wg.g;
  problem.weights = d.wg.weights;
  problem.costs = d.wg.weights;
  EXPECT_THROW(run_multi_victim_attack(problem), PreconditionViolation);
}

TEST(MultiVictim, CityScaleFourVictimsOneHospital) {
  // The paper's coordination story: several victims, one hospital, one
  // pre-planned closure set.
  const auto network = citygen::generate_city(citygen::City::Chicago, 0.2, 55);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);

  Rng rng(9);
  exp::ScenarioOptions options;
  options.path_rank = 10;
  MultiVictimProblem problem;
  problem.graph = &network.graph();
  problem.weights = weights;
  problem.costs = costs;
  for (int i = 0; i < 6 && problem.victims.size() < 3; ++i) {
    const auto scenario = exp::sample_scenario(network, weights, 0, rng, options);
    if (!scenario) continue;
    // Victims to the same hospital from different random sources.
    bool duplicate = false;
    for (const auto& v : problem.victims) duplicate |= v.source == scenario->source;
    if (duplicate) continue;
    problem.victims.push_back(
        {scenario->source, scenario->target, scenario->p_star, scenario->prefix});
  }
  ASSERT_GE(problem.victims.size(), 2u);

  const auto result = run_multi_victim_attack(problem);
  if (result.status == AttackStatus::Success) {
    expect_all_forced(problem, result);
    EXPECT_GT(result.removed_edges.size(), 0u);
  } else {
    // Victim routes can genuinely conflict; the only acceptable
    // alternative outcome is a certified conflict.
    EXPECT_EQ(result.status, AttackStatus::Infeasible);
  }
}

}  // namespace
}  // namespace mts::attack
