#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

TEST(OrientationOrder, PerfectGridIsOne) {
  std::vector<double> bearings;
  for (int i = 0; i < 100; ++i) {
    bearings.push_back(0.0);
    bearings.push_back(90.0);
    bearings.push_back(180.0);
    bearings.push_back(270.0);
  }
  EXPECT_NEAR(orientation_order(bearings), 1.0, 1e-12);
}

TEST(OrientationOrder, UniformBearingsNearZero) {
  Rng rng(1);
  std::vector<double> bearings;
  for (int i = 0; i < 20000; ++i) bearings.push_back(rng.uniform(0.0, 360.0));
  EXPECT_LT(orientation_order(bearings), 0.01);
}

TEST(OrientationOrder, NegativeBearingsFoldCorrectly) {
  // -90 folds to 0 mod 90, same bin as +90.
  EXPECT_NEAR(orientation_order({-90.0, 90.0, 0.0, 180.0}), 1.0, 1e-12);
}

TEST(OrientationOrder, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(orientation_order({}), 0.0);
}

TEST(NetworkMetrics, GridValues) {
  auto wg = test::make_grid(5, 5);
  const auto metrics = compute_network_metrics(wg.g);
  EXPECT_EQ(metrics.num_nodes, 25u);
  EXPECT_EQ(metrics.num_edges, 80u);
  EXPECT_DOUBLE_EQ(metrics.average_degree, 2.0 * 80 / 25);
  EXPECT_NEAR(metrics.orientation_order, 1.0, 1e-9);
  // Interior nodes (3x3 = 9) have 4 distinct neighbors; edge non-corner
  // nodes have 3; corners have 2 (not intersections).
  EXPECT_NEAR(metrics.four_way_share, 9.0 / 21.0, 1e-9);
  EXPECT_NEAR(metrics.mean_segment_length, 1.0, 1e-9);
}

TEST(NetworkMetrics, JitterReducesOrientationOrder) {
  auto grid = test::make_grid(10, 10);
  const double ordered = compute_network_metrics(grid.g).orientation_order;

  // Same topology, heavily jittered positions.
  Rng rng(7);
  DiGraph jittered;
  for (NodeId n : grid.g.nodes()) {
    jittered.add_node(grid.g.x(n) + rng.normal(0.0, 0.35), grid.g.y(n) + rng.normal(0.0, 0.35));
  }
  for (EdgeId e : grid.g.edges()) {
    jittered.add_edge(grid.g.edge_from(e), grid.g.edge_to(e));
  }
  jittered.finalize();
  const double disordered = compute_network_metrics(jittered).orientation_order;
  EXPECT_LT(disordered, ordered - 0.2);
}

TEST(NetworkMetrics, ZeroLengthEdgesSkippedInBearings) {
  DiGraph g;
  const NodeId a = g.add_node(0, 0);
  const NodeId b = g.add_node(0, 0);  // coincident
  g.add_edge(a, b);
  g.finalize();
  const auto metrics = compute_network_metrics(g);  // must not NaN
  EXPECT_EQ(metrics.num_edges, 1u);
  EXPECT_DOUBLE_EQ(metrics.orientation_order, 0.0);
}

}  // namespace
}  // namespace mts
