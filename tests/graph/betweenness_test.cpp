#include "graph/betweenness.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"

namespace mts {
namespace {

TEST(Betweenness, PathGraphMiddleEdgeHighest) {
  // a -> b -> c -> d: edge (b, c) carries pairs {a,b}x{c,d} = most paths.
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  const NodeId d = g.add_node();
  const EdgeId ab = g.add_edge(a, b);
  const EdgeId bc = g.add_edge(b, c);
  const EdgeId cd = g.add_edge(c, d);
  g.finalize();
  const std::vector<double> w = {1.0, 1.0, 1.0};

  BetweennessOptions options;
  options.normalize = false;
  const auto eb = edge_betweenness(g, w, options);
  // ab serves pairs (a,b),(a,c),(a,d) = 3; bc serves (a,c),(a,d),(b,c),(b,d) = 4.
  EXPECT_DOUBLE_EQ(eb[ab.value()], 3.0);
  EXPECT_DOUBLE_EQ(eb[bc.value()], 4.0);
  EXPECT_DOUBLE_EQ(eb[cd.value()], 3.0);
}

TEST(Betweenness, NormalizationDividesByPairs) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId ab = g.add_edge(a, b);
  g.finalize();
  const std::vector<double> w = {1.0};
  const auto eb = edge_betweenness(g, w);  // normalize = true, n(n-1) = 2
  EXPECT_DOUBLE_EQ(eb[ab.value()], 0.5);
}

TEST(Betweenness, SplitsFlowAcrossTiedPaths) {
  test::Diamond d;
  // Make both two-hop routes tie at length 2 so flow splits.
  std::vector<double> w = d.wg.weights;
  w[d.sb.value()] = 1.0;
  w[d.bt.value()] = 1.0;
  BetweennessOptions options;
  options.normalize = false;
  const auto eb = edge_betweenness(d.wg.g, w, options);
  // Pair (s, t) contributes 0.5 to each arm; (s,a)/(a,t) contribute 1 fully.
  EXPECT_DOUBLE_EQ(eb[d.sa.value()], 1.5);
  EXPECT_DOUBLE_EQ(eb[d.sb.value()], 1.5);
  EXPECT_DOUBLE_EQ(eb[d.st.value()], 0.0);  // never shortest
}

TEST(Betweenness, FilterRedirectsFlow) {
  test::Diamond d;
  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.sa);
  BetweennessOptions options;
  options.normalize = false;
  options.filter = &filter;
  const auto eb = edge_betweenness(d.wg.g, d.wg.weights, options);
  EXPECT_DOUBLE_EQ(eb[d.sa.value()], 0.0);
  EXPECT_GT(eb[d.sb.value()], 0.0);
}

TEST(Betweenness, PivotSamplingApproximatesExact) {
  auto wg = test::make_grid(6, 6);
  const auto exact = edge_betweenness(wg.g, wg.weights);
  BetweennessOptions options;
  options.pivots = 18;  // half the nodes
  options.seed = 3;
  const auto approx = edge_betweenness(wg.g, wg.weights, options);
  // Rank correlation proxy: the top exact edge should be near the top of
  // the approximation.
  const auto top_exact = std::max_element(exact.begin(), exact.end()) - exact.begin();
  double rank = 0;
  for (double v : approx) {
    if (v > approx[static_cast<std::size_t>(top_exact)]) ++rank;
  }
  EXPECT_LT(rank, wg.g.num_edges() / 4.0);
}

}  // namespace
}  // namespace mts
