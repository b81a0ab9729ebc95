#include "graph/eigen.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace mts {
namespace {

/// Bidirectional cycle: perfectly symmetric, so all centralities equal and
/// the dominant eigenvalue of the adjacency matrix is 2.
TEST(Eigen, CycleIsUniform) {
  DiGraph g;
  constexpr int n = 8;
  for (int i = 0; i < n; ++i) g.add_node();
  for (int i = 0; i < n; ++i) {
    g.add_edge(NodeId(i), NodeId((i + 1) % n));
    g.add_edge(NodeId((i + 1) % n), NodeId(i));
  }
  g.finalize();

  const auto result = eigenvector_centrality(g);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalue, 2.0, 0.05);
  for (int i = 1; i < n; ++i) {
    EXPECT_NEAR(result.centrality[0], result.centrality[static_cast<std::size_t>(i)], 1e-6);
  }
}

TEST(Eigen, StarCenterDominates) {
  DiGraph g;
  const NodeId center = g.add_node();
  for (int i = 0; i < 6; ++i) {
    const NodeId leaf = g.add_node();
    g.add_edge(center, leaf);
    g.add_edge(leaf, center);
  }
  g.finalize();
  const auto result = eigenvector_centrality(g);
  for (std::size_t i = 1; i < g.num_nodes(); ++i) {
    EXPECT_GT(result.centrality[center.value()], result.centrality[i] * 1.5);
  }
}

TEST(Eigen, CentralityIsNormalized) {
  auto wg = test::make_grid(4, 4);
  const auto result = eigenvector_centrality(wg.g);
  double norm = 0.0;
  for (double v : result.centrality) norm += v * v;
  EXPECT_NEAR(norm, 1.0, 1e-6);
  for (double v : result.centrality) EXPECT_GE(v, 0.0);
}

TEST(Eigen, EmptyGraph) {
  DiGraph g;
  g.finalize();
  const auto result = eigenvector_centrality(g);
  EXPECT_TRUE(result.centrality.empty());
}

TEST(Eigen, EdgeScoresAreEndpointProducts) {
  test::Diamond d;
  const auto result = eigenvector_centrality(d.wg.g);
  const auto scores = edge_eigen_scores(d.wg.g, result);
  ASSERT_EQ(scores.size(), d.wg.g.num_edges());
  EXPECT_NEAR(scores[d.sa.value()],
              result.centrality[d.s.value()] * result.centrality[d.a.value()], 1e-12);
}

TEST(Eigen, GridCenterBeatsCorner) {
  auto wg = test::make_grid(5, 5);
  const auto result = eigenvector_centrality(wg.g);
  EXPECT_GT(result.centrality[12], result.centrality[0]);
}

}  // namespace
}  // namespace mts
