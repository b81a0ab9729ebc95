#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace mts {
namespace {

// The reachable_from oracle (test_util.hpp) that area_isolation_test
// checks cuts against.
TEST(Reachability, SimpleChain) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.finalize();
  EXPECT_TRUE(test::reachable_from(g, a)[c.value()]);
  EXPECT_FALSE(test::reachable_from(g, c)[a.value()]);
}

TEST(Reachability, FilterBlocksPath) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b);
  g.finalize();
  EdgeFilter filter(1);
  filter.remove(e);
  EXPECT_FALSE(test::reachable_from(g, a, &filter)[b.value()]);
}

TEST(Scc, TwoCyclesOneBridge) {
  DiGraph g;
  // Cycle {0,1,2} -> bridge -> cycle {3,4}.
  for (int i = 0; i < 5; ++i) g.add_node();
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(2));
  g.add_edge(NodeId(2), NodeId(0));
  g.add_edge(NodeId(2), NodeId(3));
  g.add_edge(NodeId(3), NodeId(4));
  g.add_edge(NodeId(4), NodeId(3));
  g.finalize();

  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 2u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_EQ(scc.component[3], scc.component[4]);
  EXPECT_NE(scc.component[0], scc.component[3]);

  const auto sizes = scc.sizes();
  EXPECT_EQ(sizes[scc.largest()], 3u);
}

TEST(Scc, DagIsAllSingletons) {
  DiGraph g;
  for (int i = 0; i < 4; ++i) g.add_node();
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(2));
  g.add_edge(NodeId(0), NodeId(3));
  g.finalize();
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 4u);
}

TEST(Scc, TwoWayGridIsOneComponent) {
  auto wg = test::make_grid(6, 6);
  const auto scc = strongly_connected_components(wg.g);
  EXPECT_EQ(scc.num_components, 1u);
}

TEST(Scc, FilterSplitsComponent) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId ab = g.add_edge(a, b);
  g.add_edge(b, a);
  g.finalize();
  EXPECT_EQ(strongly_connected_components(g).num_components, 1u);
  EdgeFilter filter(2);
  filter.remove(ab);
  EXPECT_EQ(strongly_connected_components(g, &filter).num_components, 2u);
}

TEST(Scc, DeepChainDoesNotOverflowStack) {
  DiGraph g;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) g.add_node();
  for (int i = 0; i + 1 < n; ++i) {
    g.add_edge(NodeId(static_cast<std::uint32_t>(i)), NodeId(static_cast<std::uint32_t>(i + 1)));
  }
  g.finalize();
  const auto scc = strongly_connected_components(g);  // iterative: must not crash
  EXPECT_EQ(scc.num_components, static_cast<std::size_t>(n));
}

TEST(Scc, SelfLoopSingleNode) {
  DiGraph g;
  const NodeId a = g.add_node();
  g.add_edge(a, a);
  g.finalize();
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 1u);
}

}  // namespace
}  // namespace mts
