#include "graph/yen.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "core/error.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

/// The second-shortest-path query: rank 2 of a Yen ranking that starts at
/// `first` (nullopt when no other simple path exists).
std::optional<Path> second_after(const DiGraph& g, std::span<const double> weights,
                                 NodeId s, NodeId t, const Path& first) {
  YenOptions options;
  options.first_path = &first;
  auto ranked = yen_ksp(g, weights, s, t, 2, options);
  if (ranked.size() < 2) return std::nullopt;
  return std::move(ranked[1]);
}

TEST(Yen, DiamondRanksAllThreePaths) {
  test::Diamond d;
  const auto paths = yen_ksp(d.wg.g, d.wg.weights, d.s, d.t, 10);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].length, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].length, 3.0);
  EXPECT_DOUBLE_EQ(paths[2].length, 4.0);
  EXPECT_EQ(paths[2].edges, (std::vector<EdgeId>{d.st}));
}

TEST(Yen, KZeroAndKOne) {
  test::Diamond d;
  EXPECT_TRUE(yen_ksp(d.wg.g, d.wg.weights, d.s, d.t, 0).empty());
  const auto one = yen_ksp(d.wg.g, d.wg.weights, d.s, d.t, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].length, 2.0);
}

TEST(Yen, UnreachableTargetReturnsEmpty) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, b);
  g.finalize();
  const std::vector<double> w = {1.0};
  EXPECT_TRUE(yen_ksp(g, w, a, c, 5).empty());
}

TEST(Yen, RejectsSourceEqualsTarget) {
  test::Diamond d;
  EXPECT_THROW(yen_ksp(d.wg.g, d.wg.weights, d.s, d.s, 3), PreconditionViolation);
}

TEST(Yen, PathsAreSimpleSortedAndDistinct) {
  Rng rng(42);
  auto wg = test::make_random_graph(25, 90, rng);
  const NodeId s(0);
  const NodeId t(24);
  const auto paths = yen_ksp(wg.g, wg.weights, s, t, 30);
  ASSERT_GE(paths.size(), 5u);
  std::set<std::vector<EdgeId>> seen;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(is_simple_path(wg.g, paths[i], s, t)) << "path " << i;
    EXPECT_NEAR(path_length(paths[i].edges, wg.weights), paths[i].length, 1e-9);
    EXPECT_TRUE(seen.insert(paths[i].edges).second) << "duplicate path " << i;
    if (i > 0) {
      EXPECT_GE(paths[i].length, paths[i - 1].length - 1e-12);
    }
  }
}

TEST(Yen, MatchesBruteForceEnumeration) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(9, 20, rng);
    const NodeId s(0);
    const NodeId t(8);
    const auto expected = test::enumerate_simple_paths(wg.g, wg.weights, s, t);
    const auto actual = yen_ksp(wg.g, wg.weights, s, t, expected.size() + 5);
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Lengths must agree rank by rank (edge sequences may differ on ties).
      EXPECT_NEAR(actual[i].length, expected[i].length, 1e-9)
          << "seed " << seed << " rank " << i;
    }
  }
}

// Deep ranks against brute force.  Continuous random weights make every
// path length distinct, so the rank order is unique and Yen must return
// the enumeration's first 100 paths edge for edge.  With more than 150
// simple paths on offer, the admission bound engages (spurs are pruned).
TEST(Yen, FirstHundredPathsMatchBruteForceEdgeForEdge) {
  constexpr std::size_t kRank = 100;
  std::uint64_t pruned = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(12, 42, rng);
    const NodeId s(0);
    const NodeId t(11);
    const auto expected = test::enumerate_simple_paths(wg.g, wg.weights, s, t);
    ASSERT_GT(expected.size(), 150u) << "seed " << seed;

    WorkBudget budget;
    YenOptions options;
    options.budget = &budget;
    const auto actual = yen_ksp(wg.g, wg.weights, s, t, kRank, options);
    ASSERT_EQ(actual.size(), kRank) << "seed " << seed;
    for (std::size_t i = 0; i < kRank; ++i) {
      EXPECT_EQ(actual[i].edges, expected[i].edges) << "seed " << seed << " rank " << i + 1;
      EXPECT_NEAR(actual[i].length, expected[i].length, 1e-9)
          << "seed " << seed << " rank " << i + 1;
    }
    pruned += budget.spurs_pruned;

    const auto second = second_after(wg.g, wg.weights, s, t, actual[0]);
    ASSERT_TRUE(second.has_value()) << "seed " << seed;
    EXPECT_EQ(second->edges, expected[1].edges) << "seed " << seed;
  }
  EXPECT_GT(pruned, 0u);
}

TEST(Yen, GridHasManyEqualLengthPaths) {
  auto wg = test::make_grid(4, 4);
  const NodeId s(0);
  const NodeId t(15);
  // Shortest path on a 4x4 grid takes 6 unit steps; C(6,3) = 20 monotone
  // routes all have length 6.
  const auto paths = yen_ksp(wg.g, wg.weights, s, t, 20);
  ASSERT_EQ(paths.size(), 20u);
  for (const auto& path : paths) EXPECT_DOUBLE_EQ(path.length, 6.0);
}

TEST(Yen, TieBreakPopsLexSmallestCandidate) {
  // Two tied-length candidates sit in the heap at once; the deterministic
  // tie-break must pop the lexicographically smaller edge sequence.  With
  // the old length-only comparator the pick depended on heap internals
  // (libstdc++'s priority_queue returned the insertion-order first, i.e.
  // the spur-position-0 deviation [sb, bt]).
  test::WeightedGraph wg;
  const NodeId s = wg.g.add_node(0, 0);
  const NodeId a = wg.g.add_node(1, 1);
  const NodeId t = wg.g.add_node(2, 0);
  const NodeId b = wg.g.add_node(1, -1);
  const NodeId c = wg.g.add_node(2, 1);
  const EdgeId sa = wg.edge(s, a, 1.0);
  const EdgeId at = wg.edge(a, t, 1.0);
  const EdgeId sb = wg.edge(s, b, 1.0);
  const EdgeId bt = wg.edge(b, t, 1.5);
  const EdgeId ac = wg.edge(a, c, 0.5);
  const EdgeId ct = wg.edge(c, t, 1.0);
  wg.g.finalize();

  // Rank 1 is uniquely s->a->t (2.0).  Expanding it queues BOTH deviations
  // s->b->t (2.5, edges [sb, bt]) and s->a->c->t (2.5, edges [sa, ac, ct]).
  const auto paths = yen_ksp(wg.g, wg.weights, s, t, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].edges, (std::vector<EdgeId>{sa, at}));
  EXPECT_DOUBLE_EQ(paths[1].length, 2.5);
  EXPECT_DOUBLE_EQ(paths[2].length, 2.5);
  EXPECT_EQ(paths[1].edges, (std::vector<EdgeId>{sa, ac, ct}));  // lex-min tie
  EXPECT_EQ(paths[2].edges, (std::vector<EdgeId>{sb, bt}));

  // The second-shortest query resolves the same tie the same way.
  const auto second = second_after(wg.g, wg.weights, s, t, paths[0]);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->edges, (std::vector<EdgeId>{sa, ac, ct}));
}

TEST(Yen, TieHeavyLatticeRanksAreStableAcrossK) {
  // Regression for the paper's p* = k-th path on tie-heavy lattices: the
  // ranking must be a well-defined sequence, so asking for fewer paths
  // returns a prefix of asking for more, and the k-th path is stable.
  auto wg = test::make_grid(4, 4);
  const NodeId s(0);
  const NodeId t(15);
  const auto all = yen_ksp(wg.g, wg.weights, s, t, 20);
  ASSERT_EQ(all.size(), 20u);
  for (std::size_t k : {1u, 5u, 10u, 19u}) {
    const auto prefix = yen_ksp(wg.g, wg.weights, s, t, k);
    ASSERT_EQ(prefix.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(prefix[i].edges, all[i].edges) << "k=" << k << " rank " << i;
    }
  }
  // The 20 tied ranks are exactly the 20 monotone routes (no duplicates,
  // no longer path sneaking in).
  const auto expected = test::enumerate_simple_paths(wg.g, wg.weights, s, t);
  std::set<std::vector<EdgeId>> expected_shortest;
  for (std::size_t i = 0; i < 20; ++i) expected_shortest.insert(expected[i].edges);
  std::set<std::vector<EdgeId>> actual;
  for (const auto& path : all) actual.insert(path.edges);
  EXPECT_EQ(actual, expected_shortest);
}

TEST(Yen, RespectsBaseFilter) {
  test::Diamond d;
  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.sa);
  YenOptions options;
  options.filter = &filter;
  const auto paths = yen_ksp(d.wg.g, d.wg.weights, d.s, d.t, 10, options);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].length, 3.0);
  EXPECT_DOUBLE_EQ(paths[1].length, 4.0);
}

TEST(Yen, SpurBudgetStopsTheRanking) {
  // The budget's spurs= cap is Yen's one spur cap: the ranking throws at
  // the first spur search past it, after charging every spur it tried.
  Rng rng(3);
  auto wg = test::make_random_graph(30, 120, rng);
  WorkBudget budget;
  budget.max_spur_searches = 1;
  YenOptions options;
  options.budget = &budget;
  EXPECT_THROW(yen_ksp(wg.g, wg.weights, NodeId(0), NodeId(29), 50, options), BudgetExhausted);
  EXPECT_EQ(budget.spur_searches, 2u);
}

TEST(SecondShortestPath, FindsRunnerUp) {
  test::Diamond d;
  const auto first = shortest_path(d.wg.g, d.wg.weights, d.s, d.t);
  ASSERT_TRUE(first.has_value());
  const auto second = second_after(d.wg.g, d.wg.weights, d.s, d.t, *first);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->length, 3.0);
  EXPECT_NE(second->edges, first->edges);
}

TEST(SecondShortestPath, NoneWhenUnique) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b);
  g.finalize();
  const std::vector<double> w = {1.0};
  Path only{{e}, 1.0};
  EXPECT_FALSE(second_after(g, w, a, b, only).has_value());
}

TEST(SecondShortestPath, AgreesWithYenRankTwo) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    Rng rng(seed);
    auto wg = test::make_random_graph(20, 70, rng);
    const NodeId s(0);
    const NodeId t(19);
    const auto top2 = yen_ksp(wg.g, wg.weights, s, t, 2);
    if (top2.size() < 2) continue;
    const auto second = second_after(wg.g, wg.weights, s, t, top2[0]);
    ASSERT_TRUE(second.has_value()) << "seed " << seed;
    EXPECT_EQ(second->edges, top2[1].edges) << "seed " << seed;
    EXPECT_EQ(second->length, top2[1].length) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mts
