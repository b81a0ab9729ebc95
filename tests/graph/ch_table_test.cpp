#include "graph/ch_table.hpp"

#include <gtest/gtest.h>

#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "graph/dijkstra.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

TEST(ChTableQuery, DiamondPairs) {
  test::Diamond d;
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  ChTableQuery table(ch);
  const std::vector<NodeId> sources = {d.s, d.t};
  const std::vector<NodeId> targets = {d.t, d.a, d.s};
  const auto values = table.table(sources, targets);
  ASSERT_EQ(values.size(), 6u);
  EXPECT_DOUBLE_EQ(values[0], 2.0);                // s -> t
  EXPECT_DOUBLE_EQ(values[1], 1.0);                // s -> a
  EXPECT_DOUBLE_EQ(values[2], 0.0);                // s -> s, self pair
  EXPECT_EQ(values[3], 0.0);                       // t -> t
  EXPECT_EQ(values[4], kInfiniteDistance);         // t -> a, directed
  EXPECT_EQ(values[5], kInfiniteDistance);         // t -> s
}

TEST(ChTableQuery, MatchesPairwiseDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(35, 120, rng);
    const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
    ChTableQuery table(ch);
    std::vector<NodeId> sources;
    std::vector<NodeId> targets;
    for (int i = 0; i < 5; ++i) {
      sources.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(35)));
      targets.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(35)));
    }
    const auto values = table.table(sources, targets);
    ASSERT_EQ(values.size(), sources.size() * targets.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (std::size_t j = 0; j < targets.size(); ++j) {
        const double expected =
            shortest_distance(wg.g, wg.weights, sources[i], targets[j]);
        const double got = values[i * targets.size() + j];
        if (expected == kInfiniteDistance) {
          EXPECT_EQ(got, kInfiniteDistance) << "seed " << seed;
        } else {
          EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected))
              << "seed " << seed << " pair (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(ChTableQuery, ReusableAcrossCallsWithDifferentShapes) {
  // The bucket scratch is cleared between calls; a second call with
  // different dimensions must not see entries deposited by the first.
  Rng rng(9);
  auto wg = test::make_random_graph(30, 90, rng);
  const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
  ChTableQuery table(ch);

  const std::vector<NodeId> wide = {NodeId(0), NodeId(5), NodeId(11), NodeId(29)};
  static_cast<void>(table.table(wide, wide));

  const std::vector<NodeId> sources = {NodeId(3)};
  const std::vector<NodeId> targets = {NodeId(27)};
  const auto values = table.table(sources, targets);
  ASSERT_EQ(values.size(), 1u);
  const double expected = shortest_distance(wg.g, wg.weights, NodeId(3), NodeId(27));
  if (expected == kInfiniteDistance) {
    EXPECT_EQ(values[0], kInfiniteDistance);
  } else {
    EXPECT_NEAR(values[0], expected, 1e-9 * (1.0 + expected));
  }
}

TEST(ChTableQuery, BudgetAccumulatesWork) {
  test::Diamond d;
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  ChTableQuery table(ch);
  WorkBudget budget;
  const std::vector<NodeId> sources = {d.s};
  const std::vector<NodeId> targets = {d.t};
  static_cast<void>(table.table(sources, targets, &budget));
  EXPECT_GT(budget.ch_nodes_settled, 0u);
  EXPECT_EQ(budget.distance_work(), budget.ch_nodes_settled);
  EXPECT_EQ(budget.ch_queries, 0u);  // bucket searches are not point queries
}

TEST(ChTableQuery, CityNetworkAgainstFullDijkstra) {
  const auto network = citygen::generate_city(citygen::City::Chicago, 0.2, 21);
  const auto& g = network.graph();
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto ch = ContractionHierarchy::build(g, weights);
  ChTableQuery table(ch);

  Rng rng(4);
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  for (int i = 0; i < 6; ++i) {
    sources.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    targets.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
  }
  const auto values = table.table(sources, targets);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    DijkstraOptions options;
    const auto tree = dijkstra(g, weights, sources[i], options);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      const double expected = tree.reached(targets[j])
                                  ? tree.dist[targets[j].value()]
                                  : kInfiniteDistance;
      const double got = values[i * targets.size() + j];
      if (expected == kInfiniteDistance) {
        EXPECT_EQ(got, kInfiniteDistance);
      } else {
        EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace mts
