#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

TEST(Dijkstra, DiamondShortest) {
  test::Diamond d;
  const auto path = shortest_path(d.wg.g, d.wg.weights, d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->length, 2.0);
  EXPECT_EQ(path->edges, (std::vector<EdgeId>{d.sa, d.at}));
}

TEST(Dijkstra, FilterForcesDetour) {
  test::Diamond d;
  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.sa);
  const auto path = shortest_path(d.wg.g, d.wg.weights, d.s, d.t, &filter);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->length, 3.0);
  EXPECT_EQ(path->edges, (std::vector<EdgeId>{d.sb, d.bt}));
}

TEST(Dijkstra, UnreachableReturnsNullopt) {
  test::Diamond d;
  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.sa);
  filter.remove(d.sb);
  filter.remove(d.st);
  EXPECT_FALSE(shortest_path(d.wg.g, d.wg.weights, d.s, d.t, &filter).has_value());
  EXPECT_EQ(shortest_distance(d.wg.g, d.wg.weights, d.s, d.t, &filter), kInfiniteDistance);
}

TEST(Dijkstra, SourceEqualsTarget) {
  test::Diamond d;
  SearchSpace ws;
  dijkstra(ws, d.wg.g, d.wg.weights, d.s);
  EXPECT_DOUBLE_EQ(ws.dist(d.s), 0.0);
  const auto path = extract_path(d.wg.g, ws, d.s, d.s);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->empty());
}

TEST(Dijkstra, BannedNodesAreAvoided) {
  test::Diamond d;
  std::vector<std::uint8_t> banned(d.wg.g.num_nodes(), 0);
  banned[d.a.value()] = 1;
  DijkstraOptions options;
  options.target = d.t;
  options.banned_nodes = &banned;
  SearchSpace ws;
  dijkstra(ws, d.wg.g, d.wg.weights, d.s, options);
  const auto path = extract_path(d.wg.g, ws, d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->length, 3.0);
}

TEST(Dijkstra, BannedSourceReachesNothing) {
  test::Diamond d;
  std::vector<std::uint8_t> banned(d.wg.g.num_nodes(), 0);
  banned[d.s.value()] = 1;
  DijkstraOptions options;
  options.banned_nodes = &banned;
  const auto tree = dijkstra(d.wg.g, d.wg.weights, d.s, options);
  EXPECT_FALSE(tree.reached(d.t));
  EXPECT_FALSE(tree.reached(d.s));
}

TEST(Dijkstra, RejectsNegativeWeight) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_edge(a, b);
  g.finalize();
  const std::vector<double> w = {-1.0};
  EXPECT_THROW(dijkstra(g, w, a), PreconditionViolation);
}

TEST(Dijkstra, RejectsWeightSizeMismatch) {
  test::Diamond d;
  const std::vector<double> w = {1.0};
  EXPECT_THROW(dijkstra(d.wg.g, w, d.s), PreconditionViolation);
}

TEST(Dijkstra, ZeroWeightEdgesHandled) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.finalize();
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(shortest_distance(g, w, a, c), 0.0);
}

TEST(Dijkstra, MatchesBellmanFordOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(60, 240, rng);
    const NodeId s(0);
    const auto dij = dijkstra(wg.g, wg.weights, s);
    const auto bf = test::bellman_ford(wg.g, wg.weights, s);
    for (NodeId n : wg.g.nodes()) {
      EXPECT_NEAR(dij.dist[n.value()], bf.dist[n.value()], 1e-9)
          << "seed " << seed << " node " << n.value();
    }
  }
}

TEST(Dijkstra, MatchesBellmanFordUnderFilter) {
  Rng rng(99);
  auto wg = test::make_random_graph(40, 160, rng);
  EdgeFilter filter(wg.g.num_edges());
  for (EdgeId e : wg.g.edges()) {
    if (rng.chance(0.3)) filter.remove(e);
  }
  const NodeId s(0);
  const auto dij = dijkstra(wg.g, wg.weights, s, {.filter = &filter});
  const auto bf = test::bellman_ford(wg.g, wg.weights, s, &filter);
  for (NodeId n : wg.g.nodes()) {
    if (bf.dist[n.value()] == kInfiniteDistance) {
      EXPECT_EQ(dij.dist[n.value()], kInfiniteDistance);
    } else {
      EXPECT_NEAR(dij.dist[n.value()], bf.dist[n.value()], 1e-9);
    }
  }
}

TEST(Dijkstra, EarlyExitMatchesFullRun) {
  Rng rng(5);
  auto wg = test::make_random_graph(80, 320, rng);
  const NodeId s(0);
  const NodeId t(79);
  const auto full = dijkstra(wg.g, wg.weights, s);
  EXPECT_NEAR(shortest_distance(wg.g, wg.weights, s, t), full.dist[t.value()], 1e-12);
}

TEST(Dijkstra, ExtractedPathIsConsistent) {
  Rng rng(8);
  auto wg = test::make_random_graph(50, 200, rng);
  const NodeId s(0);
  const NodeId t(49);
  const auto path = shortest_path(wg.g, wg.weights, s, t);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(is_simple_path(wg.g, *path, s, t));
  EXPECT_NEAR(path_length(path->edges, wg.weights), path->length, 1e-9);
}

TEST(EdgeFilter, RemoveRestoreCount) {
  EdgeFilter filter(5);
  EXPECT_EQ(filter.num_removed(), 0u);
  filter.remove(EdgeId(2));
  filter.remove(EdgeId(2));  // idempotent
  EXPECT_EQ(filter.num_removed(), 1u);
  EXPECT_TRUE(filter.is_removed(EdgeId(2)));
  filter.restore(EdgeId(2));
  EXPECT_EQ(filter.num_removed(), 0u);
  filter.remove(EdgeId(1));
  filter.remove(EdgeId(4));
  EXPECT_EQ(filter.removed_edges(), (std::vector<EdgeId>{EdgeId(1), EdgeId(4)}));
  filter.clear();
  EXPECT_EQ(filter.num_removed(), 0u);
}

}  // namespace
}  // namespace mts
