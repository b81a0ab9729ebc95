#include "attack/interdiction.hpp"

#include <gtest/gtest.h>

#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "graph/dijkstra.hpp"
#include "test_util.hpp"

namespace mts::attack {
namespace {

using test::Diamond;

TEST(Interdiction, DiamondForcesDetours) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  const auto result = interdict_route(d.wg.g, d.wg.weights, costs, d.s, d.t, 2.0);
  // Best moves: break the 2.0 arm (dist -> 3.0), then the 3.0 arm (-> 4.0).
  EXPECT_DOUBLE_EQ(result.baseline_distance, 2.0);
  EXPECT_DOUBLE_EQ(result.final_distance, 4.0);
  EXPECT_EQ(result.removed_edges.size(), 2u);
  EXPECT_DOUBLE_EQ(result.total_cost, 2.0);
}

TEST(Interdiction, KeepConnectedNeverDisconnects) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  const auto result = interdict_route(d.wg.g, d.wg.weights, costs, d.s, d.t, 100.0);
  // All three disjoint routes: at most 2 can be cut while staying connected.
  EXPECT_DOUBLE_EQ(result.final_distance, 4.0);
  EXPECT_LE(result.removed_edges.size(), 4u);
  EdgeFilter filter(d.wg.g.num_edges());
  for (EdgeId e : result.removed_edges) filter.remove(e);
  EXPECT_LT(shortest_distance(d.wg.g, d.wg.weights, d.s, d.t, &filter), kInfiniteDistance);
}

TEST(Interdiction, BudgetIsRespected) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 3.0);
  const auto result = interdict_route(d.wg.g, d.wg.weights, costs, d.s, d.t, 4.0);
  EXPECT_LE(result.total_cost, 4.0);
  EXPECT_EQ(result.removed_edges.size(), 1u);  // second removal would cost 6
  EXPECT_DOUBLE_EQ(result.final_distance, 3.0);
}

TEST(Interdiction, ZeroBudgetRemovesNothing) {
  Diamond d;
  std::vector<double> costs(d.wg.g.num_edges(), 1.0);
  const auto result = interdict_route(d.wg.g, d.wg.weights, costs, d.s, d.t, 0.0);
  EXPECT_TRUE(result.removed_edges.empty());
  EXPECT_DOUBLE_EQ(result.delay_factor(), 1.0);
}

TEST(Interdiction, ThrowsWhenUnreachable) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.finalize();
  const std::vector<double> w;
  EXPECT_THROW(interdict_route(g, w, w, a, b, 1.0), PreconditionViolation);
}

TEST(Interdiction, GreedyBeatsOrMatchesBetweennessOnCities) {
  const auto network = citygen::generate_city(citygen::City::Chicago, 0.2, 21);
  const auto& g = network.graph();
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);

  Rng rng(5);
  int compared = 0;
  double greedy_total = 0.0;
  double betweenness_total = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    const NodeId t = network.pois()[static_cast<std::size_t>(trial) % 4].node;
    if (shortest_distance(g, weights, s, t) == kInfiniteDistance) continue;

    InterdictionOptions greedy_options;
    const auto greedy = interdict_route(g, weights, costs, s, t, 6.0, greedy_options);
    InterdictionOptions b_options;
    b_options.strategy = InterdictionStrategy::Betweenness;
    const auto betweenness = interdict_route(g, weights, costs, s, t, 6.0, b_options);
    greedy_total += greedy.delay_factor();
    betweenness_total += betweenness.delay_factor();
    EXPECT_GE(greedy.final_distance, greedy.baseline_distance);
    EXPECT_GE(betweenness.final_distance, betweenness.baseline_distance);
    ++compared;
  }
  ASSERT_GE(compared, 4);
  // The exact marginal-gain greedy should dominate the cheap heuristic in
  // aggregate (allow a tiny slack for ties).
  EXPECT_GE(greedy_total, betweenness_total - 0.05);
}

TEST(Interdiction, DelayFactorMonotoneInBudget) {
  const auto network = citygen::generate_city(citygen::City::Boston, 0.2, 31);
  const auto& g = network.graph();
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);
  const NodeId s = network.intersection_nodes().front();
  const NodeId t = network.pois().front().node;

  double previous = 1.0;
  for (double budget : {0.0, 2.0, 4.0, 8.0}) {
    const auto result = interdict_route(g, weights, costs, s, t, budget);
    EXPECT_GE(result.delay_factor() + 1e-12, previous) << "budget " << budget;
    previous = result.delay_factor();
  }
}

}  // namespace
}  // namespace mts::attack
