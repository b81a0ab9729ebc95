// Every public API that documents a precondition must reject bad input
// with PreconditionViolation carrying file:line context — not UB, not a
// crash three layers deeper.  One test block per module; each case feeds
// exactly one violated precondition to an otherwise-valid call.
#include <gtest/gtest.h>

#include <limits>
#include <regex>
#include <string>

#include "attack/algorithms.hpp"
#include "attack/area_isolation.hpp"
#include "attack/defense.hpp"
#include "attack/exact.hpp"
#include "attack/interdiction.hpp"
#include "attack/multi_victim.hpp"
#include "attack/oracle.hpp"
#include "citygen/generate.hpp"
#include "citygen/spec.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"
#include "graph/betweenness.hpp"
#include "graph/connectivity.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/dijkstra.hpp"
#include "graph/eigen.hpp"
#include "graph/maxflow.hpp"
#include "graph/metrics.hpp"
#include "graph/spatial_index.hpp"
#include "graph/yen.hpp"
#include "lp/simplex.hpp"
#include "osm/road_network.hpp"
#include "osm/xml.hpp"
#include "sim/traffic_sim.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

/// Runs `fn`, asserting it throws PreconditionViolation whose message
/// contains `fragment` and the "<file>:<line>: " prefix mts::require adds.
template <typename Fn>
void expect_precondition(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    ADD_FAILURE() << "expected PreconditionViolation containing \"" << fragment << "\"";
  } catch (const PreconditionViolation& error) {
    const std::string what = error.what();
    EXPECT_TRUE(std::regex_search(what, std::regex(R"(\.[ch]pp:\d+: )")))
        << "missing file:line context: " << what;
    EXPECT_NE(what.find(fragment), std::string::npos)
        << "expected \"" << fragment << "\" in: " << what;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "wrong exception type: " << error.what();
  }
}

TEST(Preconditions, DiGraph) {
  DiGraph g;
  g.add_node();
  expect_precondition([&] { g.add_edge(NodeId(0), NodeId(7)); }, "add_edge");
  expect_precondition([&] { static_cast<void>(g.out_edges(NodeId(0))); }, "not finalized");
  expect_precondition([&] { static_cast<void>(g.in_edges(NodeId(0))); }, "not finalized");
}

TEST(Preconditions, Dijkstra) {
  test::Diamond d;
  DiGraph unfinalized;
  unfinalized.add_node();
  expect_precondition([&] { dijkstra(unfinalized, {}, NodeId(0)); }, "not finalized");

  const std::vector<double> short_weights(2, 1.0);
  expect_precondition([&] { dijkstra(d.wg.g, short_weights, d.s); }, "size mismatch");
  expect_precondition([&] { dijkstra(d.wg.g, d.wg.weights, NodeId(99)); }, "out of range");

  DijkstraOptions options;
  const std::vector<std::uint8_t> bad_mask(1, 0);
  options.banned_nodes = &bad_mask;
  expect_precondition([&] { dijkstra(d.wg.g, d.wg.weights, d.s, options); }, "ban mask");

  auto negative = d.wg.weights;
  negative[d.sa.value()] = -1.0;
  expect_precondition([&] { shortest_path(d.wg.g, negative, d.s, d.t); }, "negative");
}

TEST(Preconditions, YenAndSecondShortest) {
  test::Diamond d;
  DiGraph unfinalized;
  unfinalized.add_node();
  expect_precondition([&] { yen_ksp(unfinalized, {}, NodeId(0), NodeId(0), 3); },
                      "not finalized");
  expect_precondition([&] { yen_ksp(d.wg.g, d.wg.weights, d.s, NodeId(9), 3); },
                      "out of range");
  expect_precondition([&] { yen_ksp(d.wg.g, d.wg.weights, d.s, d.s, 3); },
                      "source == target");

  // The second-shortest-path query is yen_ksp(k = 2) from a given first
  // path, which must run source -> target.
  const auto rank_two_after = [&](const Path& first) {
    YenOptions options;
    options.first_path = &first;
    return yen_ksp(d.wg.g, d.wg.weights, d.s, d.t, 2, options);
  };
  expect_precondition([&] { rank_two_after(Path{}); }, "first_path does not run source");
  const Path from_a{{d.at}, 1.0};
  expect_precondition([&] { rank_two_after(from_a); }, "first_path does not run source");
  const Path to_a{{d.sa}, 1.0};
  expect_precondition([&] { rank_two_after(to_a); }, "first_path does not run source");
  SearchSpace bounds;
  YenOptions bounds_only;
  bounds_only.reverse_bounds = &bounds;
  expect_precondition([&] { yen_ksp(d.wg.g, d.wg.weights, d.s, d.t, 2, bounds_only); },
                      "reverse_bounds requires first_path");
}

TEST(Preconditions, CentralityAndConnectivity) {
  test::Diamond d;
  DiGraph unfinalized;
  unfinalized.add_node();
  const std::vector<double> short_weights(2, 1.0);
  expect_precondition([&] { edge_betweenness(d.wg.g, short_weights); }, "size mismatch");
  expect_precondition([&] { eigenvector_centrality(unfinalized); }, "not finalized");
  expect_precondition([&] { strongly_connected_components(unfinalized); }, "not finalized");
}

TEST(Preconditions, MaxFlow) {
  test::Diamond d;
  const std::vector<double> short_caps(2, 1.0);
  expect_precondition([&] { max_flow(d.wg.g, short_caps, d.s, d.t); }, "size mismatch");
  expect_precondition([&] { max_flow(d.wg.g, d.wg.weights, d.s, d.s); }, "source == sink");

  auto negative = d.wg.weights;
  negative[d.sb.value()] = -1.0;
  expect_precondition([&] { max_flow(d.wg.g, negative, d.s, d.t); }, "negative capacity");
}

TEST(Preconditions, ContractionHierarchy) {
  test::Diamond d;
  DiGraph unfinalized;
  unfinalized.add_node();
  const std::vector<double> short_weights(2, 1.0);
  expect_precondition([&] { ContractionHierarchy::build(unfinalized, {}); }, "not finalized");
  expect_precondition([&] { ContractionHierarchy::build(d.wg.g, short_weights); },
                      "size mismatch");

  auto negative = d.wg.weights;
  negative[d.at.value()] = -1.0;
  expect_precondition([&] { ContractionHierarchy::build(d.wg.g, negative); }, "negative");

  const auto ch = ContractionHierarchy::build(d.wg.g, d.wg.weights);
  expect_precondition([&] { static_cast<void>(ch.query(d.s, NodeId(50))); }, "out of range");
}

TEST(Preconditions, SpatialIndex) {
  expect_precondition([] { PointGrid({}, 0.0); }, "cell size");
}

TEST(Preconditions, Metrics) {
  DiGraph unfinalized;
  unfinalized.add_node();
  expect_precondition([&] { compute_network_metrics(unfinalized); }, "not finalized");
}

TEST(Preconditions, Simplex) {
  CoveringProblem lp;
  lp.costs = {1.0, 1.0};
  lp.sets = {{0, 5}};
  expect_precondition([&] { solve_lp(lp); }, "index out of range");
}

TEST(Preconditions, CoreUtilities) {
  Rng rng(7);
  expect_precondition([&] { rng.uniform_int(5, 2); }, "empty range");
  expect_precondition([&] { rng.uniform_index(0); }, "must be positive");

  expect_precondition([] { percentile({}, 0.5); }, "empty sample");
  expect_precondition([] { percentile({1.0, 2.0}, 1.5); }, "must be in [0, 1]");

  expect_precondition([] { Table("t", {}); }, "at least one column");
  Table table("t", {"a", "b"});
  expect_precondition([&] { table.add_row({"only-one"}); }, "row width mismatch");
}

TEST(Preconditions, CitygenSpecs) {
  expect_precondition([] { citygen::city_spec(citygen::City::Boston, 0.0); },
                      "scale must be positive");
  expect_precondition([] { citygen::latticeness_spec(1.5); }, "must be in [0, 1]");
}

TEST(Preconditions, OsmLayer) {
  // An empty path can never be opened, even by privileged users (an
  // unwritable directory could be created by save_osm_xml or bypassed
  // when the tests run as root).
  expect_precondition([] { osm::load_osm_xml(""); }, "cannot open");
  expect_precondition([] { osm::save_osm_xml({}, ""); }, "cannot open");
}

/// One small attack instance shared by the attack-precondition cases.
struct AttackFixture {
  test::WeightedGraph wg;
  std::vector<double> costs;
  attack::ForcePathCutProblem problem;

  AttackFixture() {
    wg = test::make_grid(3, 3);
    costs.assign(wg.g.num_edges(), 1.0);
    const auto ranked = yen_ksp(wg.g, wg.weights, NodeId(0), NodeId(8), 3);
    problem.graph = &wg.g;
    problem.weights = wg.weights;
    problem.costs = costs;
    problem.source = NodeId(0);
    problem.target = NodeId(8);
    problem.p_star = ranked.back();
    problem.seed_paths.assign(ranked.begin(), ranked.end() - 1);
  }
};

TEST(Preconditions, AttackAlgorithms) {
  AttackFixture fx;

  auto null_graph = fx.problem;
  null_graph.graph = nullptr;
  expect_precondition([&] { attack::run_attack(attack::Algorithm::GreedyEdge, null_graph); },
                      "null graph");

  auto bad_weights = fx.problem;
  const std::vector<double> short_vector(2, 1.0);
  bad_weights.weights = short_vector;
  expect_precondition([&] { attack::run_attack(attack::Algorithm::GreedyEdge, bad_weights); },
                      "size mismatch");

  auto bad_costs = fx.problem;
  bad_costs.costs = short_vector;
  expect_precondition([&] { attack::run_attack(attack::Algorithm::GreedyEdge, bad_costs); },
                      "costs size mismatch");

  auto bad_mask = fx.problem;
  bad_mask.protected_edges.assign(3, 0);
  expect_precondition([&] { attack::run_attack(attack::Algorithm::GreedyEdge, bad_mask); },
                      "protected_edges size mismatch");

  auto negative_costs = fx.problem;
  auto costs = fx.costs;
  costs[fx.problem.p_star.edges.front().value()] = -1.0;  // p*'s edges are checked too
  negative_costs.costs = costs;
  expect_precondition(
      [&] { attack::run_attack(attack::Algorithm::GreedyEdge, negative_costs); },
      "negative cost");

  expect_precondition([&] { attack::run_exact_attack(null_graph); }, "null graph");
}

// Every edge's cost is checked, not only p*'s: a negative cost off p* let
// GreedyEdge report a free "successful" cut, and a NaN cost a `nan` total.
TEST(Preconditions, AttackCostsCheckedOnEveryEdge) {
  AttackFixture fx;
  std::vector<std::uint8_t> on_p_star(fx.wg.g.num_edges(), 0);
  for (EdgeId e : fx.problem.p_star.edges) on_p_star[e.value()] = 1;
  // A removable edge of the shortest path: the first cut every attack sees.
  EdgeId target = EdgeId::invalid();
  for (EdgeId e : fx.problem.seed_paths.front().edges) {
    if (!on_p_star[e.value()]) {
      target = e;
      break;
    }
  }
  ASSERT_TRUE(target.valid());
  const std::string edge = "edge " + std::to_string(target.value()) + " has ";

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [bad, defect] : {std::pair{-1.0, "negative cost"},
                                    std::pair{nan, "non-finite cost"},
                                    std::pair{inf, "non-finite cost"}}) {
    auto costs = fx.costs;
    costs[target.value()] = bad;
    auto problem = fx.problem;
    problem.costs = costs;
    for (attack::Algorithm algorithm : attack::kAllAlgorithms) {
      expect_precondition([&] { attack::run_attack(algorithm, problem); }, edge + defect);
    }
    expect_precondition([&] { attack::run_exact_attack(problem); }, edge + defect);
    attack::MultiVictimProblem multi;
    multi.graph = problem.graph;
    multi.weights = problem.weights;
    multi.costs = problem.costs;
    multi.victims.push_back({problem.source, problem.target, problem.p_star, problem.seed_paths});
    expect_precondition([&] { attack::run_multi_victim_attack(multi); }, edge + defect);
  }
}

TEST(Preconditions, AttackOracle) {
  AttackFixture fx;

  auto null_graph = fx.problem;
  null_graph.graph = nullptr;
  expect_precondition([&] { attack::ExclusivityOracle oracle(null_graph); }, "null graph");

  auto broken_p_star = fx.problem;
  broken_p_star.p_star.edges.pop_back();  // no longer ends at the target
  expect_precondition([&] { attack::ExclusivityOracle oracle(broken_p_star); },
                      "not a simple");
}

TEST(Preconditions, AreaIsolationAndInterdiction) {
  AttackFixture fx;
  const auto& g = fx.wg.g;
  std::vector<std::uint8_t> area(g.num_nodes(), 0);
  area[4] = 1;

  const std::vector<double> short_costs(2, 1.0);
  expect_precondition([&] { attack::isolate_area(g, short_costs, area); },
                      "costs size mismatch");
  const std::vector<std::uint8_t> bad_area(2, 0);
  expect_precondition([&] { attack::isolate_area(g, fx.costs, bad_area); },
                      "area mask size mismatch");
  expect_precondition([&] { attack::nodes_within_radius(g, NodeId(99), 10.0); },
                      "out of range");

  expect_precondition(
      [&] {
        attack::interdict_route(g, fx.wg.weights, fx.costs, NodeId(0), NodeId(8), -1.0);
      },
      "negative budget");
  expect_precondition(
      [&] { attack::interdict_route(g, fx.wg.weights, short_costs, NodeId(0), NodeId(8), 5.0); },
      "costs size mismatch");
}

TEST(Preconditions, DefenseAndMultiVictim) {
  AttackFixture fx;

  auto null_graph = fx.problem;
  null_graph.graph = nullptr;
  expect_precondition([&] { attack::harden_against_force_path_cut(null_graph, 2); },
                      "null graph");

  auto already_masked = fx.problem;
  already_masked.protected_edges.assign(fx.wg.g.num_edges(), 0);
  expect_precondition([&] { attack::harden_against_force_path_cut(already_masked, 2); },
                      "already carries a protection mask");

  attack::MultiVictimProblem multi;
  multi.graph = &fx.wg.g;
  multi.weights = fx.problem.weights;
  multi.costs = fx.problem.costs;
  expect_precondition([&] { attack::run_multi_victim_attack(multi); }, "no victims");

  multi.graph = nullptr;
  expect_precondition([&] { attack::run_multi_victim_attack(multi); }, "null graph");
}

TEST(Preconditions, SimAndScenario) {
  const auto network = citygen::generate_city(citygen::City::Chicago, 0.15, 5);
  const NodeId s = network.intersection_nodes().front();
  const NodeId t = network.pois().front().node;

  sim::SimOptions bad_step;
  bad_step.time_step_s = 0.0;
  expect_precondition([&] { sim::TrafficSimulation sim(network, bad_step); },
                      "time step must be positive");

  sim::TrafficSimulation sim(network);
  expect_precondition([&] { sim.add_vehicle({NodeId(1u << 30), t, 0.0}); }, "out of range");
  expect_precondition([&] { sim.add_closure(EdgeId(1u << 30), 0.0); }, "out of range");
  static_cast<void>(s);

  Rng rng(3);
  const std::vector<double> lengths = network.edge_lengths();
  exp::ScenarioOptions options;
  options.path_rank = 0;
  expect_precondition([&] { exp::sample_scenario(network, lengths, 0, rng, options); },
                      "path_rank");
  expect_precondition([&] { exp::sample_scenario(network, lengths, 99, rng); },
                      "hospital index out of range");
}

}  // namespace
}  // namespace mts
