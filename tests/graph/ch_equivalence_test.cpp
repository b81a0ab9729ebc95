// Randomized equivalence fuzz for the three CH-backed query paths against
// filtered Dijkstra, the reference implementation (DESIGN.md §14).  The
// fuzzed graphs deliberately include what city networks rarely produce:
// disconnected components, parallel edges with distinct weights, and
// zero-weight edges.
#include <gtest/gtest.h>

#include "graph/cch.hpp"
#include "graph/ch_table.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/dijkstra.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

/// A graph with no connectivity guarantee: `nodes` isolated-by-default
/// nodes, random edges (self loops skipped), ~1/8 of them duplicated as
/// parallel twins with a different weight, ~1/10 of the weights zero.
test::WeightedGraph make_fuzz_graph(std::size_t nodes, std::size_t edges, Rng& rng) {
  test::WeightedGraph wg;
  for (std::size_t i = 0; i < nodes; ++i) wg.g.add_node();
  for (std::size_t i = 0; i < edges; ++i) {
    const NodeId u(static_cast<std::uint32_t>(rng.uniform_index(nodes)));
    const NodeId v(static_cast<std::uint32_t>(rng.uniform_index(nodes)));
    if (u == v) continue;
    const double w = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.5, 4.0);
    wg.edge(u, v, w);
    if (rng.uniform() < 0.125) wg.edge(u, v, rng.uniform(0.5, 4.0));
  }
  wg.g.finalize();
  return wg;
}

void expect_distance_eq(double got, double expected, const std::string& context) {
  if (expected == kInfiniteDistance) {
    EXPECT_EQ(got, kInfiniteDistance) << context;
  } else {
    EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << context;
  }
}

TEST(ChEquivalence, QueryMatchesDijkstraOnFuzzedGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    // Sparse graphs keep many node pairs disconnected.
    const auto wg = make_fuzz_graph(25, 12 + rng.uniform_index(50), rng);
    const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
    ChSearchSpace ws;
    for (int trial = 0; trial < 20; ++trial) {
      const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(25)));
      const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(25)));
      const double expected = shortest_distance(wg.g, wg.weights, s, t);
      const auto result = ch.query(s, t, ws);
      const std::string context =
          "seed " + std::to_string(seed) + " " + std::to_string(s.value()) + "->" +
          std::to_string(t.value());
      expect_distance_eq(result.distance, expected, context);
      if (expected < kInfiniteDistance) {
        ASSERT_TRUE(result.path.has_value()) << context;
        expect_distance_eq(path_length(result.path->edges, wg.weights), expected, context);
      } else {
        EXPECT_FALSE(result.path.has_value()) << context;
      }
    }
  }
}

TEST(ChEquivalence, TableMatchesDijkstraOnFuzzedGraphs) {
  for (std::uint64_t seed = 20; seed <= 28; ++seed) {
    Rng rng(seed);
    const auto wg = make_fuzz_graph(30, 20 + rng.uniform_index(70), rng);
    const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
    ChTableQuery table(ch);
    std::vector<NodeId> sources;
    std::vector<NodeId> targets;
    for (int i = 0; i < 4; ++i) {
      sources.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(30)));
      targets.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(30)));
    }
    const auto values = table.table(sources, targets);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (std::size_t j = 0; j < targets.size(); ++j) {
        const double expected =
            shortest_distance(wg.g, wg.weights, sources[i], targets[j]);
        expect_distance_eq(values[i * targets.size() + j], expected,
                           "seed " + std::to_string(seed) + " cell " + std::to_string(i) +
                               "," + std::to_string(j));
      }
    }
  }
}

TEST(ChEquivalence, RecustomizedCchMatchesFilteredDijkstraOnFuzzedGraphs) {
  for (std::uint64_t seed = 40; seed <= 47; ++seed) {
    Rng rng(seed);
    const auto wg = make_fuzz_graph(25, 30 + rng.uniform_index(60), rng);
    if (wg.g.num_edges() == 0) continue;
    const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
    const auto topo = CchTopology::build(wg.g, ch.ranks());
    CchMetric metric(topo, wg.weights);

    // A sequence of evolving masks on one metric object, so later rounds
    // exercise the mask-diff path, not just first customization.
    EdgeFilter filter(wg.g.num_edges());
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 4; ++i) {
        filter.remove(
            EdgeId(static_cast<std::uint32_t>(rng.uniform_index(wg.g.num_edges()))));
      }
      metric.recustomize(&filter);
      for (int trial = 0; trial < 3; ++trial) {
        const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(25)));
        SearchSpace bounds;
        metric.bounds_to_target(t, bounds);
        for (NodeId s : wg.g.nodes()) {
          const double expected = shortest_distance(wg.g, wg.weights, s, t, &filter);
          expect_distance_eq(bounds.reached(s) ? bounds.dist(s) : kInfiniteDistance, expected,
                             "seed " + std::to_string(seed) + " round " +
                                 std::to_string(round) + " " + std::to_string(s.value()) +
                                 "->" + std::to_string(t.value()));
        }
      }
    }
  }
}

TEST(ChEquivalence, PhastBoundsMatchReverseDijkstraOnFuzzedGraphs) {
  for (std::uint64_t seed = 60; seed <= 65; ++seed) {
    Rng rng(seed);
    const auto wg = make_fuzz_graph(25, 25 + rng.uniform_index(60), rng);
    const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
    ChSearchSpace ws;
    SearchSpace bounds;
    const NodeId target(static_cast<std::uint32_t>(rng.uniform_index(25)));
    ch.bounds_to_target(target, ws, bounds);
    for (NodeId n : wg.g.nodes()) {
      const double expected = shortest_distance(wg.g, wg.weights, n, target);
      const double got = bounds.reached(n) ? bounds.dist(n) : kInfiniteDistance;
      expect_distance_eq(got, expected,
                         "seed " + std::to_string(seed) + " node " +
                             std::to_string(n.value()));
    }
  }
}

}  // namespace
}  // namespace mts
