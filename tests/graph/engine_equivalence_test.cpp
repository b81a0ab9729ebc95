// Randomized cross-engine equivalence: plain Dijkstra and Dijkstra pruned
// by reverse-tree goal bounds must return the same path (same tie-broken
// edges, same length) on every query — with and without edge filters and
// node bans.  This is the safety net for the goal-directed spur engine:
// the reverse tree used here is the same structure yen.cpp and the oracle
// use as a lower bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "graph/dijkstra.hpp"
#include "graph/edge_filter.hpp"
#include "graph/search_space.hpp"
#include "graph/yen.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

using test::make_random_graph;
using test::WeightedGraph;

void expect_same_path(const std::optional<Path>& expected, const std::optional<Path>& actual,
                      const char* engine) {
  ASSERT_EQ(expected.has_value(), actual.has_value()) << engine << " reachability differs";
  if (!expected.has_value()) return;
  EXPECT_EQ(expected->edges, actual->edges) << engine << " picked different edges";
  EXPECT_NEAR(actual->length, expected->length, 1e-9 * (1.0 + expected->length)) << engine;
}

void check_all_engines(const DiGraph& g, const std::vector<double>& weights, NodeId s, NodeId t,
                       const EdgeFilter* filter, const std::vector<std::uint8_t>* banned) {
  DijkstraOptions options;
  options.target = t;
  options.filter = filter;
  options.banned_nodes = banned;
  SearchSpace plain_ws;
  dijkstra(plain_ws, g, weights, s, options);
  const auto plain = extract_path(g, plain_ws, s, t);

  // The reverse tree is built over the *unfiltered* graph even when the
  // query is filtered: removals and bans only lengthen paths, so its
  // distances stay admissible lower bounds, mirroring the oracle.  The
  // prune bound is the exact answer, the tightest one that must still
  // let the optimal path through.
  SearchSpace reverse_tree;
  reverse_dijkstra(reverse_tree, g, weights, t);
  DijkstraOptions bounded_options = options;
  bounded_options.goal_bounds = &reverse_tree;
  if (plain.has_value()) bounded_options.prune_bound = plain->length;
  SearchSpace bounded_ws;
  dijkstra(bounded_ws, g, weights, s, bounded_options);
  expect_same_path(plain, extract_path(g, bounded_ws, s, t), "goal-bounded dijkstra");
}

TEST(EngineEquivalence, RandomGraphsAgreeUnfiltered) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(100 + seed);
    const WeightedGraph wg = make_random_graph(120, 420, rng);
    for (int q = 0; q < 6; ++q) {
      const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(120)));
      const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(120)));
      if (s == t) continue;
      check_all_engines(wg.g, wg.weights, s, t, nullptr, nullptr);
    }
  }
}

TEST(EngineEquivalence, RandomGraphsAgreeWithFiltersAndBans) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(300 + seed);
    const WeightedGraph wg = make_random_graph(100, 350, rng);
    const DiGraph& g = wg.g;

    EdgeFilter filter(g.num_edges());
    for (EdgeId e : g.edges()) {
      if (rng.chance(0.15)) filter.remove(e);
    }
    std::vector<std::uint8_t> banned(g.num_nodes(), 0);
    for (std::size_t n = 0; n < g.num_nodes(); ++n) banned[n] = rng.chance(0.08) ? 1 : 0;

    for (int q = 0; q < 6; ++q) {
      const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(100)));
      const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(100)));
      if (s == t) continue;
      check_all_engines(g, wg.weights, s, t, &filter, nullptr);
      check_all_engines(g, wg.weights, s, t, nullptr, &banned);
      check_all_engines(g, wg.weights, s, t, &filter, &banned);
    }
  }
}

// The tightest possible prune bound — the exact shortest distance — must
// still let the optimal path through (the 1e-9 relative padding absorbs
// summation-order slack between the forward search and the reverse tree).
TEST(EngineEquivalence, GoalBoundedDijkstraMatchesPlainAtExactBound) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(500 + seed);
    const WeightedGraph wg = make_random_graph(150, 500, rng);
    const DiGraph& g = wg.g;
    const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(150)));
    const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(150)));
    if (s == t) continue;

    DijkstraOptions plain_options;
    plain_options.target = t;
    SearchSpace plain_ws;
    dijkstra(plain_ws, g, wg.weights, s, plain_options);
    const auto plain = extract_path(g, plain_ws, s, t);
    if (!plain.has_value()) continue;

    SearchSpace reverse_tree;
    reverse_dijkstra(reverse_tree, g, wg.weights, t);

    DijkstraOptions bounded_options;
    bounded_options.target = t;
    bounded_options.goal_bounds = &reverse_tree;
    bounded_options.prune_bound = reverse_tree.dist(s);
    SearchSpace bounded_ws;
    dijkstra(bounded_ws, g, wg.weights, s, bounded_options);
    const auto bounded = extract_path(g, bounded_ws, s, t);

    expect_same_path(plain, bounded, "goal-bounded dijkstra");
    EXPECT_LE(bounded_ws.last.nodes_settled, plain_ws.last.nodes_settled);
  }
}

// An infinite prune bound with goal bounds attached only skips provably
// disconnected heads — the reachable label set is untouched.
TEST(EngineEquivalence, GoalBoundsWithInfiniteBoundPreservePaths) {
  Rng rng(900);
  const WeightedGraph wg = make_random_graph(100, 300, rng);
  const DiGraph& g = wg.g;
  const NodeId s(3), t(97);

  SearchSpace reverse_tree;
  reverse_dijkstra(reverse_tree, g, wg.weights, t);

  DijkstraOptions plain_options;
  plain_options.target = t;
  SearchSpace plain_ws;
  dijkstra(plain_ws, g, wg.weights, s, plain_options);

  DijkstraOptions bounded_options = plain_options;
  bounded_options.goal_bounds = &reverse_tree;  // prune_bound stays infinite
  SearchSpace bounded_ws;
  dijkstra(bounded_ws, g, wg.weights, s, bounded_options);

  expect_same_path(extract_path(g, plain_ws, s, t), extract_path(g, bounded_ws, s, t),
                   "inf-bound dijkstra");
  EXPECT_EQ(bounded_ws.last.bound_pruned, 0u);
}

// The first Yen path is read straight off the reverse tree; its forward
// re-walk must match a forward Dijkstra bit-for-bit (same unique path,
// length re-accumulated in forward order).
TEST(EngineEquivalence, ExtractReversePathMatchesForwardSearch) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(700 + seed);
    const WeightedGraph wg = make_random_graph(130, 450, rng);
    const DiGraph& g = wg.g;
    const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(130)));
    const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(130)));
    if (s == t) continue;

    SearchSpace reverse_tree;
    reverse_dijkstra(reverse_tree, g, wg.weights, t);
    const auto via_tree = extract_reverse_path(g, reverse_tree, wg.weights, s, t);
    const auto forward = shortest_path(g, wg.weights, s, t);

    ASSERT_EQ(via_tree.has_value(), forward.has_value());
    if (!forward.has_value()) continue;
    EXPECT_EQ(via_tree->edges, forward->edges);
    EXPECT_EQ(via_tree->length, forward->length);  // bitwise: same forward sum
  }
}

// The admission bound depends on how many more paths are needed, so the
// k=4 run prunes differently from the k=10 run — the results must still
// share an identical prefix.
TEST(EngineEquivalence, YenPrefixStableAcrossK) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(1100 + seed);
    const WeightedGraph wg = make_random_graph(60, 240, rng);
    const NodeId s(0), t(59);
    const auto full = yen_ksp(wg.g, wg.weights, s, t, 10);
    const auto prefix = yen_ksp(wg.g, wg.weights, s, t, 4);
    ASSERT_LE(prefix.size(), full.size());
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i].edges, full[i].edges) << "rank " << i;
      EXPECT_EQ(prefix[i].length, full[i].length) << "rank " << i;
    }
  }
}

// Same checks on a generated metropolitan graph — the distribution the
// paper's experiments actually run on (tie-free continuous weights).
TEST(EngineEquivalence, CitygenCityAllEnginesAgree) {
  const auto network = citygen::generate_city(citygen::City::Boston, 0.15, 5);
  const auto weights = attack::make_weights(network, attack::WeightType::Length);
  const DiGraph& g = network.graph();
  ASSERT_GT(g.num_nodes(), 50u);

  Rng rng(13);
  for (int q = 0; q < 15; ++q) {
    const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
    if (s == t) continue;
    check_all_engines(g, weights, s, t, nullptr, nullptr);
  }
}

}  // namespace
}  // namespace mts
