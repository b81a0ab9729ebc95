#include "attack/area_isolation.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "graph/edge_filter.hpp"
#include "test_util.hpp"

namespace mts::attack {
namespace {

/// Applies a cut and checks whether any outside node can still reach any
/// area node (inbound) or vice versa (outbound).
bool still_connected(const DiGraph& g, const std::vector<EdgeId>& cut,
                     const std::vector<std::uint8_t>& in_area, bool inbound) {
  EdgeFilter filter(g.num_edges());
  for (EdgeId e : cut) filter.remove(e);
  for (NodeId u : g.nodes()) {
    if (in_area[u.value()] == (inbound ? 1 : 0)) continue;  // pick outside (inbound) nodes
    const auto reach = test::reachable_from(g, u, &filter);
    for (NodeId v : g.nodes()) {
      if (in_area[v.value()] == (inbound ? 0 : 1)) continue;
      if (reach[v.value()]) return true;
    }
  }
  return false;
}

TEST(AreaIsolation, IsolatesGridCorner) {
  auto wg = test::make_grid(4, 4);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  std::vector<std::uint8_t> area(wg.g.num_nodes(), 0);
  area[0] = 1;  // corner node, in-degree 2
  const auto result = isolate_area(wg.g, costs, area, IsolationDirection::Inbound);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_cost, 2.0);
  EXPECT_FALSE(still_connected(wg.g, result.cut_edges, area, /*inbound=*/true));
}

TEST(AreaIsolation, OutboundDirection) {
  auto wg = test::make_grid(4, 4);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  std::vector<std::uint8_t> area(wg.g.num_nodes(), 0);
  area[0] = 1;
  const auto result = isolate_area(wg.g, costs, area, IsolationDirection::Outbound);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_cost, 2.0);
  EXPECT_FALSE(still_connected(wg.g, result.cut_edges, area, /*inbound=*/false));
}

TEST(AreaIsolation, CostWeightedCutAvoidsExpensiveRoads) {
  // Two roads into a 1-node area: one cheap, one expensive; min cut takes
  // both but its cost is their sum, not uniform.
  DiGraph g;
  const NodeId out1 = g.add_node();
  const NodeId out2 = g.add_node();
  const NodeId in = g.add_node();
  g.add_edge(out1, in);
  g.add_edge(out2, in);
  g.finalize();
  const std::vector<double> costs = {1.0, 5.0};
  std::vector<std::uint8_t> area = {0, 0, 1};
  const auto result = isolate_area(g, costs, area);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_cost, 6.0);
  EXPECT_EQ(result.cut_edges.size(), 2u);
}

TEST(AreaIsolation, DefaultSemanticsBlockEveryOutsideOrigin) {
  // outside -> chokepoint -> {a, b} area.  With no origin restriction the
  // chokepoint itself is a potential traffic origin, so both area
  // entrances must go (cost 8) — cutting only the upstream edge would
  // still let a vehicle parked at the chokepoint drive in.
  DiGraph g;
  const NodeId outside = g.add_node();
  const NodeId choke = g.add_node();
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_edge(outside, choke);
  g.add_edge(choke, a);
  g.add_edge(choke, b);
  g.finalize();
  const std::vector<double> costs = {1.0, 4.0, 4.0};
  std::vector<std::uint8_t> area = {0, 0, 1, 1};
  const auto result = isolate_area(g, costs, area);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_cost, 8.0);
  EXPECT_EQ(result.cut_edges.size(), 2u);
}

TEST(AreaIsolation, OriginMaskEnablesCheaperUpstreamCut) {
  // Same topology, but traffic can only originate at `outside` (e.g. the
  // only highway entrance): the cheap upstream chokepoint cut suffices.
  DiGraph g;
  const NodeId outside = g.add_node();
  const NodeId choke = g.add_node();
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId oc = g.add_edge(outside, choke);
  g.add_edge(choke, a);
  g.add_edge(choke, b);
  g.finalize();
  const std::vector<double> costs = {1.0, 4.0, 4.0};
  std::vector<std::uint8_t> area = {0, 0, 1, 1};
  std::vector<std::uint8_t> origins = {1, 0, 0, 0};
  const auto result =
      isolate_area(g, costs, area, IsolationDirection::Inbound, origins);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_cost, 1.0);
  ASSERT_EQ(result.cut_edges.size(), 1u);
  EXPECT_EQ(result.cut_edges[0], oc);
}

TEST(AreaIsolation, EmptyOrFullAreaInfeasible) {
  auto wg = test::make_grid(3, 3);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  std::vector<std::uint8_t> none(wg.g.num_nodes(), 0);
  EXPECT_FALSE(isolate_area(wg.g, costs, none).feasible);
  std::vector<std::uint8_t> all(wg.g.num_nodes(), 1);
  EXPECT_FALSE(isolate_area(wg.g, costs, all).feasible);
}

TEST(AreaIsolation, CountsReported) {
  auto wg = test::make_grid(3, 3);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  std::vector<std::uint8_t> area(wg.g.num_nodes(), 0);
  area[4] = area[5] = 1;
  const auto result = isolate_area(wg.g, costs, area);
  EXPECT_EQ(result.area_nodes, 2u);
  EXPECT_EQ(result.outside_nodes, 7u);
}

TEST(NodesWithinRadius, EuclideanDisk) {
  auto wg = test::make_grid(5, 5);  // unit spacing
  const auto mask = nodes_within_radius(wg.g, NodeId(12), 1.1);  // center (2,2)
  std::size_t count = 0;
  for (auto f : mask) count += f;
  EXPECT_EQ(count, 5u);  // center + 4 orthogonal neighbors
  EXPECT_TRUE(mask[12]);
  EXPECT_TRUE(mask[7]);
  EXPECT_FALSE(mask[0]);
}

TEST(AreaIsolation, RejectsBadInput) {
  auto wg = test::make_grid(2, 2);
  std::vector<double> costs(wg.g.num_edges(), 1.0);
  std::vector<std::uint8_t> short_mask(1, 1);
  EXPECT_THROW(isolate_area(wg.g, costs, short_mask), PreconditionViolation);
}

}  // namespace
}  // namespace mts::attack
