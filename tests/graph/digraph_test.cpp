#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

TEST(DiGraph, EmptyGraph) {
  DiGraph g;
  g.finalize();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(DiGraph, AddNodesAndEdges) {
  DiGraph g;
  const NodeId a = g.add_node(1.0, 2.0);
  const NodeId b = g.add_node(3.0, 4.0);
  const EdgeId e = g.add_edge(a, b);
  g.finalize();

  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge_from(e), a);
  EXPECT_EQ(g.edge_to(e), b);
  EXPECT_DOUBLE_EQ(g.x(a), 1.0);
  EXPECT_DOUBLE_EQ(g.y(b), 4.0);
}

TEST(DiGraph, AddEdgeRejectsOutOfRangeEndpoint) {
  DiGraph g;
  const NodeId a = g.add_node();
  EXPECT_THROW(g.add_edge(a, NodeId(5)), PreconditionViolation);
}

TEST(DiGraph, AdjacencyRequiresFinalize) {
  DiGraph g;
  const NodeId a = g.add_node();
  g.add_node();
  EXPECT_THROW(static_cast<void>(g.out_edges(a)), PreconditionViolation);
}

TEST(DiGraph, OutAndInEdges) {
  test::Diamond d;
  const auto& g = d.wg.g;

  const auto out_s = g.out_edges(d.s);
  EXPECT_EQ(out_s.size(), 3u);
  const auto in_t = g.in_edges(d.t);
  EXPECT_EQ(in_t.size(), 3u);
  EXPECT_EQ(g.out_degree(d.a), 1u);
  EXPECT_EQ(g.in_degree(d.a), 1u);
  EXPECT_EQ(g.in_degree(d.s), 0u);
}

TEST(DiGraph, AdjacencyPartitionsAllEdges) {
  Rng rng(5);
  auto wg = test::make_random_graph(30, 80, rng);
  std::size_t total_out = 0;
  std::size_t total_in = 0;
  for (NodeId n : wg.g.nodes()) {
    total_out += wg.g.out_degree(n);
    total_in += wg.g.in_degree(n);
    for (EdgeId e : wg.g.out_edges(n)) EXPECT_EQ(wg.g.edge_from(e), n);
    for (EdgeId e : wg.g.in_edges(n)) EXPECT_EQ(wg.g.edge_to(e), n);
  }
  EXPECT_EQ(total_out, wg.g.num_edges());
  EXPECT_EQ(total_in, wg.g.num_edges());
}

TEST(DiGraph, ParallelEdgesAndSelfLoopsAllowed) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_edge(a, b);
  g.add_edge(a, b);
  g.add_edge(a, a);
  g.finalize();
  EXPECT_EQ(g.out_degree(a), 3u);
  EXPECT_EQ(g.in_degree(b), 2u);
  EXPECT_EQ(g.in_degree(a), 1u);
}

TEST(DiGraph, AverageDegreeMatchesFormula) {
  auto wg = test::make_grid(3, 3);
  // 3x3 grid: 12 undirected block faces -> 24 directed edges, 9 nodes.
  EXPECT_EQ(wg.g.num_edges(), 24u);
  EXPECT_DOUBLE_EQ(wg.g.average_degree(), 2.0 * 24 / 9);
}

TEST(DiGraph, NodeDistance) {
  DiGraph g;
  const NodeId a = g.add_node(0.0, 0.0);
  const NodeId b = g.add_node(3.0, 4.0);
  EXPECT_DOUBLE_EQ(g.node_distance(a, b), 5.0);
}

TEST(DiGraph, AddingAfterFinalizeResetsFinalized) {
  DiGraph g;
  g.add_node();
  g.finalize();
  EXPECT_TRUE(g.finalized());
  g.add_node();
  EXPECT_FALSE(g.finalized());
  g.finalize();
  EXPECT_TRUE(g.finalized());
}

}  // namespace
}  // namespace mts
