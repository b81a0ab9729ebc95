#include "graph/path.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace mts {
namespace {

TEST(Path, LengthSumsWeights) {
  test::Diamond d;
  EXPECT_DOUBLE_EQ(path_length({{d.sa, d.at}}, d.wg.weights), 2.0);
  EXPECT_DOUBLE_EQ(path_length({}, d.wg.weights), 0.0);
}

TEST(Path, NodesSequence) {
  test::Diamond d;
  const Path path{{d.sa, d.at}, 2.0};
  EXPECT_EQ(path_nodes(d.wg.g, path), (std::vector<NodeId>{d.s, d.a, d.t}));
  EXPECT_TRUE(path_nodes(d.wg.g, Path{}).empty());
}

TEST(Path, SimplePathValidation) {
  test::Diamond d;
  EXPECT_TRUE(is_simple_path(d.wg.g, Path{{d.sa, d.at}, 0}, d.s, d.t));
  // Wrong start node.
  EXPECT_FALSE(is_simple_path(d.wg.g, Path{{d.at}, 0}, d.s, d.t));
  // Disconnected edge sequence.
  EXPECT_FALSE(is_simple_path(d.wg.g, Path{{d.sa, d.bt}, 0}, d.s, d.t));
  // Wrong end node.
  EXPECT_FALSE(is_simple_path(d.wg.g, Path{{d.sa}, 0}, d.s, d.t));
  // Empty path: simple iff source == target.
  EXPECT_TRUE(is_simple_path(d.wg.g, Path{}, d.s, d.s));
  EXPECT_FALSE(is_simple_path(d.wg.g, Path{}, d.s, d.t));
}

TEST(Path, RepeatedNodeRejected) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId ab = g.add_edge(a, b);
  const EdgeId ba = g.add_edge(b, a);
  const EdgeId ab2 = g.add_edge(a, b);
  g.finalize();
  // a -> b -> a -> b revisits both nodes.
  EXPECT_FALSE(is_simple_path(g, Path{{ab, ba, ab2}, 0}, a, b));
}

TEST(Path, SignatureDistinguishesPathsAndOrder) {
  test::Diamond d;
  const Path p1{{d.sa, d.at}, 0};
  const Path p2{{d.sb, d.bt}, 0};
  const Path p1_reversed{{d.at, d.sa}, 0};
  EXPECT_EQ(path_signature(p1), path_signature(p1));
  EXPECT_NE(path_signature(p1), path_signature(p2));
  EXPECT_NE(path_signature(p1), path_signature(p1_reversed));  // order-sensitive
  EXPECT_NE(path_signature(p1), path_signature(Path{}));
}

TEST(Path, EqualityIsEdgeSequenceOnly) {
  test::Diamond d;
  const Path a{{d.sa, d.at}, 2.0};
  const Path b{{d.sa, d.at}, 999.0};  // stale length
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mts
