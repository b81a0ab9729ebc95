#include "graph/contraction_hierarchy.hpp"

#include <gtest/gtest.h>

#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "graph/dijkstra.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

TEST(ContractionHierarchy, DiamondDistances) {
  test::Diamond d;
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  EXPECT_DOUBLE_EQ(ch.query(d.s, d.t).distance, 2.0);
  EXPECT_DOUBLE_EQ(ch.query(d.s, d.a).distance, 1.0);
  EXPECT_DOUBLE_EQ(ch.query(d.t, d.s).distance, kInfiniteDistance);  // directed!
}

TEST(ContractionHierarchy, DiamondPathUnpacksToOriginalEdges) {
  test::Diamond d;
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  const auto result = ch.query(d.s, d.t);
  ASSERT_TRUE(result.path.has_value());
  EXPECT_EQ(result.path->edges, (std::vector<EdgeId>{d.sa, d.at}));
  EXPECT_DOUBLE_EQ(result.distance, 2.0);
}

TEST(ContractionHierarchy, SourceEqualsTarget) {
  test::Diamond d;
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  const auto result = ch.query(d.s, d.s);
  ASSERT_TRUE(result.path.has_value());
  EXPECT_TRUE(result.path->empty());
  EXPECT_DOUBLE_EQ(result.distance, 0.0);
}

TEST(ContractionHierarchy, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(40, 160, rng);
    const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
    for (int trial = 0; trial < 15; ++trial) {
      const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(40)));
      const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(40)));
      const double expected = shortest_distance(wg.g, wg.weights, s, t);
      const auto result = ch.query(s, t);
      if (expected == kInfiniteDistance) {
        EXPECT_EQ(result.distance, kInfiniteDistance) << "seed " << seed;
        EXPECT_FALSE(result.path.has_value());
        continue;
      }
      ASSERT_TRUE(result.path.has_value()) << "seed " << seed << " trial " << trial;
      EXPECT_NEAR(result.distance, expected, 1e-9) << "seed " << seed;
      // The unpacked path must be a real path of matching length.
      EXPECT_TRUE(is_simple_path(wg.g, *result.path, s, t) ||
                  result.path->edges.empty())
          << "seed " << seed;
      EXPECT_NEAR(path_length(result.path->edges, wg.weights), expected, 1e-9);
    }
  }
}

TEST(ContractionHierarchy, MatchesDijkstraOnCityNetwork) {
  const auto network = citygen::generate_city(citygen::City::SanFrancisco, 0.25, 13);
  const auto& g = network.graph();
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto ch = ContractionHierarchy::build(g, weights);

  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    const double expected = shortest_distance(g, weights, s, t);
    EXPECT_NEAR(ch.query(s, t).distance, expected, 1e-9 * (1.0 + expected)) << "trial " << trial;
  }
}

TEST(ContractionHierarchy, QuerySettlesFewerNodesThanDijkstra) {
  const auto network = citygen::generate_city(citygen::City::Chicago, 0.3, 17);
  const auto& g = network.graph();
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto ch = ContractionHierarchy::build(g, weights);

  Rng rng(3);
  std::size_t ch_settled = 0;
  std::size_t dijkstra_settled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    ch_settled += ch.query(s, t).nodes_settled;
    // Dijkstra settles every node closer than t.
    DijkstraOptions options;
    options.target = t;
    const auto tree = dijkstra(g, weights, s, options);
    for (NodeId n : g.nodes()) {
      if (tree.reached(n) && tree.dist[n.value()] <= tree.dist[t.value()]) {
        ++dijkstra_settled;
      }
    }
  }
  EXPECT_LT(ch_settled * 2, dijkstra_settled);  // at least 2x fewer
}

TEST(ContractionHierarchy, ShortcutsAreReported) {
  // A long chain through low-degree nodes must create shortcuts.
  auto wg = test::make_grid(5, 5, 1.0, 1.17);
  const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
  EXPECT_GT(ch.num_shortcuts(), 0u);
  // Ranks are a permutation of 0..n-1.
  std::vector<std::uint8_t> seen(wg.g.num_nodes(), 0);
  for (NodeId n : wg.g.nodes()) {
    ASSERT_LT(ch.rank(n), wg.g.num_nodes());
    EXPECT_FALSE(seen[ch.rank(n)]);
    seen[ch.rank(n)] = 1;
  }
}

TEST(ContractionHierarchy, ZeroWeightAndParallelEdges) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, b);
  const EdgeId cheap_ab = g.add_edge(a, b);  // parallel, cheaper
  g.add_edge(b, c);
  g.add_edge(a, a);  // self loop, ignored
  g.finalize();
  const std::vector<double> w = {3.0, 0.0, 2.0, 1.0};
  const auto ch = ContractionHierarchy::build(g, w);
  const auto result = ch.query(a, c);
  ASSERT_TRUE(result.path.has_value());
  EXPECT_DOUBLE_EQ(result.distance, 2.0);
  EXPECT_EQ(result.path->edges.front(), cheap_ab);
}

TEST(ContractionHierarchy, RejectsBadInput) {
  test::Diamond d;
  std::vector<double> bad = d.wg.weights;
  bad[0] = -1.0;
  EXPECT_THROW(ContractionHierarchy::build(d.wg.g, bad), PreconditionViolation);
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  EXPECT_THROW(static_cast<void>(ch.query(NodeId(99), d.s)), PreconditionViolation);
}

}  // namespace
}  // namespace mts
