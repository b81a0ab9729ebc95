// Randomized cross-checks: many seeds, every component against an
// independent oracle or invariant.  Catches the bugs hand-picked cases
// miss (tie structures, parallel edges, degenerate geometry).
#include <gtest/gtest.h>

#include <sstream>

#include "attack/algorithms.hpp"
#include "core/error.hpp"
#include "attack/exact.hpp"
#include "attack/verify.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/yen.hpp"
#include "osm/xml.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

/// Both infinite, or numerically equal.
void expect_same_distance(double a, double b) {
  if (a == kInfiniteDistance || b == kInfiniteDistance) {
    EXPECT_EQ(a, b);
  } else {
    EXPECT_NEAR(a, b, 1e-9 * (1.0 + a));
  }
}

/// Random graphs with nasty features: parallel edges, zero weights, near
/// ties, self loops.
test::WeightedGraph nasty_graph(Rng& rng) {
  test::WeightedGraph wg;
  const int n = 8 + static_cast<int>(rng.uniform_index(12));
  for (int i = 0; i < n; ++i) {
    wg.g.add_node(rng.uniform(0, 50), rng.uniform(0, 50));
  }
  for (int i = 0; i + 1 < n; ++i) {
    wg.edge(NodeId(static_cast<std::uint32_t>(i)), NodeId(static_cast<std::uint32_t>(i + 1)),
            rng.uniform(0.5, 2.0));
  }
  const int extras = 3 * n;
  for (int k = 0; k < extras; ++k) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(static_cast<std::size_t>(n)));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(static_cast<std::size_t>(n)));
    double w = rng.uniform(0.0, 3.0);
    if (rng.chance(0.15)) w = 1.0;  // exact ties
    if (rng.chance(0.05)) w = 0.0;  // zero weights
    wg.edge(NodeId(u), NodeId(v), w);  // self loops and parallels included
  }
  wg.g.finalize();
  wg.g.check_invariants();
  return wg;
}

TEST(Fuzz, RoutingAlgorithmsAgreeOnNastyGraphs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 977);
    auto wg = nasty_graph(rng);
    const auto n = wg.g.num_nodes();
    const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(n)));
    const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(n)));
    if (s == t) continue;

    const double via_dijkstra = shortest_distance(wg.g, wg.weights, s, t);
    const double via_bf = test::bellman_ford(wg.g, wg.weights, s).dist[t.value()];
    expect_same_distance(via_dijkstra, via_bf);
    // CH on graphs with zero-weight cycles is still exact for distances.
    const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
    expect_same_distance(via_dijkstra, ch.query(s, t).distance);
  }
}

TEST(Fuzz, YenPrefixAlwaysSortedSimpleDistinct) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 131);
    auto wg = nasty_graph(rng);
    const NodeId s(0);
    const NodeId t(static_cast<std::uint32_t>(wg.g.num_nodes() - 1));
    const auto paths = yen_ksp(wg.g, wg.weights, s, t, 12);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_TRUE(is_simple_path(wg.g, paths[i], s, t)) << "seed " << seed << " rank " << i;
      EXPECT_NO_THROW(paths[i].check_invariants(wg.g, wg.weights))
          << "seed " << seed << " rank " << i;
      if (i > 0) {
        EXPECT_GE(paths[i].length + 1e-12, paths[i - 1].length);
        EXPECT_NE(paths[i].edges, paths[i - 1].edges);
      }
    }
  }
}

TEST(Fuzz, AttacksVerifiedAcrossManySeeds) {
  int instances = 0;
  for (std::uint64_t seed = 1; seed <= 30 && instances < 20; ++seed) {
    Rng rng(seed * 31 + 7);
    auto wg = nasty_graph(rng);
    // Exclusivity counting requires strictly positive weights (road
    // metrics always are); lift the fuzz graph's zero weights.
    for (double& w : wg.weights) {
      if (w < 0.05) w = 0.3;
    }
    const NodeId s(0);
    const NodeId t(static_cast<std::uint32_t>(wg.g.num_nodes() - 1));
    const auto ranked = yen_ksp(wg.g, wg.weights, s, t, 6);
    if (ranked.size() < 6) continue;
    if (ranked[5].length <= 1e-9) continue;  // zero-length p*: degenerate
    std::vector<double> costs;
    for (std::size_t i = 0; i < wg.g.num_edges(); ++i) costs.push_back(rng.uniform(0.5, 2.0));

    attack::ForcePathCutProblem problem;
    problem.graph = &wg.g;
    problem.weights = wg.weights;
    problem.costs = costs;
    problem.source = s;
    problem.target = t;
    problem.p_star = ranked[5];
    problem.seed_paths.assign(ranked.begin(), ranked.begin() + 5);

    ++instances;
    double exact_cost = -1.0;
    const auto exact = run_exact_attack(problem);
    if (exact.status == attack::AttackStatus::Success) {
      EXPECT_TRUE(attack::verify_attack(problem, exact.removed_edges).ok) << "seed " << seed;
      exact_cost = exact.total_cost;
    }
    for (attack::Algorithm algorithm : attack::kAllAlgorithms) {
      const auto result = run_attack(algorithm, problem);
      ASSERT_EQ(result.status, attack::AttackStatus::Success)
          << "seed " << seed << " " << to_string(algorithm);
      const auto verdict = attack::verify_attack(problem, result.removed_edges);
      EXPECT_TRUE(verdict.ok) << "seed " << seed << " " << to_string(algorithm) << ": "
                              << verdict.reason;
      if (exact_cost >= 0.0) {
        EXPECT_GE(result.total_cost + 1e-9, exact_cost)
            << "seed " << seed << " " << to_string(algorithm);
      }
    }
  }
  EXPECT_GE(instances, 10);
}

TEST(Fuzz, OsmXmlRoundTripRandomTags) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 53);
    osm::OsmData data;
    const int nodes = 3 + static_cast<int>(rng.uniform_index(10));
    for (int i = 0; i < nodes; ++i) {
      osm::OsmNode node;
      node.id = OsmNodeId(i + 1);
      node.lat = rng.uniform(-85, 85);
      node.lon = rng.uniform(-180, 180);
      if (rng.chance(0.5)) {
        // Tag values with XML-hostile characters.
        std::string value;
        for (int k = 0; k < 12; ++k) {
          const char* alphabet = "ab<>&\"' =/\n\t";
          value += alphabet[rng.uniform_index(12)];
        }
        node.tags["name"] = value;
      }
      data.nodes.push_back(std::move(node));
    }
    osm::OsmWay way;
    way.id = OsmWayId(1000);
    for (int i = 0; i < nodes; ++i) way.node_refs.push_back(OsmNodeId(i + 1));
    way.tags["highway"] = "residential";
    data.ways.push_back(std::move(way));

    std::stringstream stream;
    osm::write_osm_xml(data, stream);
    const auto parsed = osm::parse_osm_xml(stream);
    ASSERT_EQ(parsed.nodes.size(), data.nodes.size()) << "seed " << seed;
    for (std::size_t i = 0; i < data.nodes.size(); ++i) {
      EXPECT_DOUBLE_EQ(parsed.nodes[i].lat, data.nodes[i].lat);
      if (const auto* name = data.nodes[i].tag("name")) {
        ASSERT_NE(parsed.nodes[i].tag("name"), nullptr) << "seed " << seed;
        EXPECT_EQ(*parsed.nodes[i].tag("name"), *name) << "seed " << seed;
      }
    }
  }
}

TEST(Fuzz, MalformedOsmXmlAlwaysThrowsInvalidInput) {
  // Each document is hostile in a different way; the parser must report
  // InvalidInput for all of them, never crash or accept garbage silently.
  const char* hostile[] = {
      "<osm><node id='1' lat='1.0'",                              // unterminated element
      "<osm><node id='1' lat='abc' lon='2.0'/></osm>",            // bad numeric attribute
      "<osm><node id='1' lat='1.0' lon='2.0' tainted/></osm>",    // attribute without value
      "<osm><node id='1' lat='1.0' lon=2.0/></osm>",              // unquoted value
      "<osm><node id='1' lat='1.0' lon='2.0&#x'/></osm>",         // bad character reference
      "<osm><node id='1' lat='1.0' lon='2.0&bogus;'/></osm>",     // unknown entity
      "<osm><node id='1' lat='1.0' lon='2.0&quot/></osm>",        // unterminated entity
      "<osm><node lat='1.0' lon='2.0'/></osm>",                   // missing id
      "<osm><node id='1' lat='NaN' lon='2.0'/></osm>",            // non-finite coordinate
      "<osm><node id='1' lat='inf' lon='2.0'/></osm>",            // non-finite coordinate
      "<osm><node id='1' lat='1.0abc' lon='2.0'/></osm>",         // trailing junk (double)
      "<osm><node id='12abc' lat='1.0' lon='2.0'/></osm>",        // trailing junk (int)
      "<osm><node id='1' lon='2.0'/></osm>",                      // missing lat
      "<osm><way id='9'><nd/></way></osm>",                       // <nd> without ref
      "<osm><way id='9'><tag k='highway'/></way></osm>",          // <tag> without v
      "<osm><node id='1' lat='1' lon='2'/><way id='9'><nd ref='1'/<//way></osm>",
      "<osm>< node id='1' lat='1' lon='2'/></osm>",               // empty element name
  };
  for (const char* doc : hostile) {
    std::stringstream stream{std::string(doc)};
    EXPECT_THROW(osm::parse_osm_xml(stream), InvalidInput) << doc;
  }
}

TEST(Fuzz, MutatedOsmXmlNeverCrashes) {
  // Byte-level mutation fuzzing: start from a valid document, corrupt it,
  // and require the parser to either succeed or throw InvalidInput.  Any
  // other escape (crash, uncaught exception type) fails the test.
  osm::OsmData data;
  for (int i = 0; i < 6; ++i) {
    osm::OsmNode node;
    node.id = OsmNodeId(i + 1);
    node.lat = 41.8 + 0.01 * i;
    node.lon = -87.6 - 0.01 * i;
    if (i % 2 == 0) node.tags["name"] = "n<&>" + std::to_string(i);
    data.nodes.push_back(std::move(node));
  }
  osm::OsmWay way;
  way.id = OsmWayId(500);
  for (int i = 0; i < 6; ++i) way.node_refs.push_back(OsmNodeId(i + 1));
  way.tags["highway"] = "primary";
  data.ways.push_back(std::move(way));
  std::stringstream pristine;
  osm::write_osm_xml(data, pristine);
  const std::string base = pristine.str();

  Rng rng(90210);
  int parsed_ok = 0;
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string doc = base;
    const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t at = rng.uniform_index(doc.size());
      switch (rng.uniform_index(4)) {
        case 0:  // flip to a hostile byte
          doc[at] = "<>&\"'/=\0x"[rng.uniform_index(9)];
          break;
        case 1:  // delete a byte
          doc.erase(at, 1);
          break;
        case 2:  // duplicate a byte
          doc.insert(at, 1, doc[at]);
          break;
        default:  // truncate the tail
          doc.resize(at);
          break;
      }
      if (doc.empty()) doc = "<";
    }
    std::stringstream stream{doc};
    try {
      const auto mutated = osm::parse_osm_xml(stream);
      ++parsed_ok;
      // Whatever survived parsing must be structurally bounded.
      EXPECT_LE(mutated.nodes.size(), 12u);
      EXPECT_LE(mutated.ways.size(), 4u);
    } catch (const InvalidInput&) {
      ++rejected;  // the only sanctioned failure mode
    }
  }
  EXPECT_EQ(parsed_ok + rejected, 400);
  EXPECT_GT(rejected, 0);  // mutations actually hit the error paths
}

TEST(Fuzz, DegenerateGraphsDoNotBreakRouting) {
  // Self-loops only: no s->t path may exist, and nothing crashes.
  DiGraph loops;
  loops.add_node(0, 0);
  loops.add_node(1, 1);
  loops.add_edge(NodeId(0), NodeId(0));
  loops.add_edge(NodeId(1), NodeId(1));
  loops.finalize();
  loops.check_invariants();
  const std::vector<double> loop_w = {1.0, 1.0};
  EXPECT_EQ(shortest_distance(loops, loop_w, NodeId(0), NodeId(1)), kInfiniteDistance);
  EXPECT_TRUE(yen_ksp(loops, loop_w, NodeId(0), NodeId(1), 4).empty());

  // Massive parallel multi-edge: the cheapest copy must win.
  DiGraph parallel;
  parallel.add_node(0, 0);
  parallel.add_node(1, 1);
  std::vector<double> par_w;
  for (int k = 0; k < 32; ++k) {
    parallel.add_edge(NodeId(0), NodeId(1));
    par_w.push_back(10.0 - 0.25 * k);
  }
  parallel.finalize();
  parallel.check_invariants();
  const auto cheapest = shortest_path(parallel, par_w, NodeId(0), NodeId(1));
  ASSERT_TRUE(cheapest.has_value());
  EXPECT_NEAR(cheapest->length, 10.0 - 0.25 * 31, 1e-12);
  cheapest->check_invariants(parallel, par_w);
  // Yen enumerates distinct parallel copies as distinct paths.
  const auto multi = yen_ksp(parallel, par_w, NodeId(0), NodeId(1), 5);
  ASSERT_EQ(multi.size(), 5u);
  for (const auto& p : multi) p.check_invariants(parallel, par_w);

  // Disconnected source/destination components.
  DiGraph split;
  for (int i = 0; i < 6; ++i) split.add_node(i, 0);
  split.add_edge(NodeId(0), NodeId(1));
  split.add_edge(NodeId(1), NodeId(2));
  split.add_edge(NodeId(3), NodeId(4));
  split.add_edge(NodeId(4), NodeId(5));
  split.finalize();
  split.check_invariants();
  const std::vector<double> split_w(split.num_edges(), 1.0);
  EXPECT_EQ(shortest_distance(split, split_w, NodeId(0), NodeId(5)), kInfiniteDistance);
  EXPECT_TRUE(yen_ksp(split, split_w, NodeId(0), NodeId(5), 3).empty());
  const auto bf = test::bellman_ford(split, split_w, NodeId(0));
  EXPECT_EQ(bf.dist[5], kInfiniteDistance);
  EXPECT_NEAR(bf.dist[2], 2.0, 1e-12);
}

}  // namespace
}  // namespace mts
