#include "graph/cch.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "graph/ch_assets.hpp"
#include "graph/dijkstra.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

/// The s->t distance under the metric's current mask, read off a masked
/// PHAST pass to t.
double masked_distance(CchMetric& metric, NodeId s, NodeId t) {
  SearchSpace bounds;
  metric.bounds_to_target(t, bounds);
  return bounds.reached(s) ? bounds.dist(s) : kInfiniteDistance;
}

TEST(Cch, UnmaskedDistancesMatchDijkstra) {
  test::Diamond d;
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  const auto topo = CchTopology::build(d.wg.g, ch.ranks());
  CchMetric metric(topo, d.wg.weights);
  EXPECT_DOUBLE_EQ(masked_distance(metric, d.s, d.t), 2.0);
  EXPECT_DOUBLE_EQ(masked_distance(metric, d.s, d.a), 1.0);
  EXPECT_EQ(masked_distance(metric, d.t, d.s), kInfiniteDistance);
  EXPECT_DOUBLE_EQ(masked_distance(metric, d.s, d.s), 0.0);
}

TEST(Cch, RecustomizeTracksMaskAndRestores) {
  test::Diamond d;
  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  const auto topo = CchTopology::build(d.wg.g, ch.ranks());
  CchMetric metric(topo, d.wg.weights);

  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.sa);
  metric.recustomize(&filter);
  const double masked = shortest_distance(d.wg.g, d.wg.weights, d.s, d.t, &filter);
  EXPECT_DOUBLE_EQ(masked_distance(metric, d.s, d.t), masked);

  // Diffing back to the empty mask must restore the original distances.
  metric.recustomize(nullptr);
  EXPECT_DOUBLE_EQ(masked_distance(metric, d.s, d.t), 2.0);
}

TEST(Cch, ParallelEdgesSurviveSelectiveRemoval) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  const EdgeId slow_ab = g.add_edge(a, b);
  const EdgeId cheap_ab = g.add_edge(a, b);  // parallel, cheaper
  g.add_edge(b, c);
  g.finalize();
  const std::vector<double> w = {3.0, 1.0, 2.0};
  const auto ch = ContractionHierarchy::build(g, w);
  const auto topo = CchTopology::build(g, ch.ranks());
  CchMetric metric(topo, w);
  EXPECT_DOUBLE_EQ(masked_distance(metric, a, c), 3.0);

  // Removing the cheap copy falls back to the slow one...
  EdgeFilter filter(g.num_edges());
  filter.remove(cheap_ab);
  metric.recustomize(&filter);
  EXPECT_DOUBLE_EQ(masked_distance(metric, a, c), 5.0);

  // ...and removing both parallel edges disconnects the pair.
  filter.remove(slow_ab);
  metric.recustomize(&filter);
  EXPECT_EQ(masked_distance(metric, a, c), kInfiniteDistance);
}

TEST(Cch, BoundsToTargetMatchesMaskedReverseDistances) {
  Rng rng(5);
  auto wg = test::make_random_graph(30, 100, rng);
  const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
  const auto topo = CchTopology::build(wg.g, ch.ranks());
  CchMetric metric(topo, wg.weights);

  EdgeFilter filter(wg.g.num_edges());
  for (int i = 0; i < 8; ++i) {
    filter.remove(EdgeId(static_cast<std::uint32_t>(rng.uniform_index(wg.g.num_edges()))));
  }
  metric.recustomize(&filter);

  const NodeId target(29);
  SearchSpace bounds;
  metric.bounds_to_target(target, bounds);
  for (NodeId n : wg.g.nodes()) {
    const double expected = shortest_distance(wg.g, wg.weights, n, target, &filter);
    const double got = bounds.reached(n) ? bounds.dist(n) : kInfiniteDistance;
    if (expected == kInfiniteDistance) {
      EXPECT_EQ(got, kInfiniteDistance) << "node " << n.value();
    } else {
      EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << "node " << n.value();
    }
  }
}

TEST(Cch, RepeatedRecustomizationsOnCityNetwork) {
  // The attack-loop shape: one metric object, many candidate masks, each
  // re-customized by diffing against the previous mask.
  const auto network = citygen::generate_city(citygen::City::Boston, 0.2, 19);
  const auto& g = network.graph();
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto ch = ContractionHierarchy::build(g, weights);
  const auto topo = CchTopology::build(g, ch.ranks());
  CchMetric metric(topo, weights);

  Rng rng(23);
  EdgeFilter filter(g.num_edges());
  for (int round = 0; round < 6; ++round) {
    // Mutate the mask incrementally: drop a few edges, restore a few.
    for (int i = 0; i < 5; ++i) {
      filter.remove(EdgeId(static_cast<std::uint32_t>(rng.uniform_index(g.num_edges()))));
    }
    if (round % 2 == 1) {
      const auto removed = filter.removed_edges();
      filter.restore(removed[rng.uniform_index(removed.size())]);
    }
    metric.recustomize(&filter);
    for (int trial = 0; trial < 4; ++trial) {
      const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
      const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
      const double expected = shortest_distance(g, weights, s, t, &filter);
      const double got = masked_distance(metric, s, t);
      if (expected == kInfiniteDistance) {
        EXPECT_EQ(got, kInfiniteDistance) << "round " << round;
      } else {
        EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << "round " << round;
      }
    }
  }
}

TEST(ChAssets, ChKnobAcceptsOnlyUnsetZeroOrOne) {
  unsetenv("MTS_CH");
  EXPECT_TRUE(ch_enabled());
  setenv("MTS_CH", "1", 1);
  EXPECT_TRUE(ch_enabled());
  setenv("MTS_CH", "0", 1);
  EXPECT_FALSE(ch_enabled());
  // A typo must not silently keep the CCH on (or turn it off).
  for (const char* bad : {"off", "on", "true", "2", "-1", "01", "1x", " 1"}) {
    setenv("MTS_CH", bad, 1);
    try {
      (void)ch_enabled();
      ADD_FAILURE() << "accepted MTS_CH=" << bad;
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + bad + "'"), std::string::npos)
          << e.what();
    }
  }
  unsetenv("MTS_CH");
}

}  // namespace
}  // namespace mts
