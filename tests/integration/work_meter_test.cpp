// The work meter (core/budget.hpp): every search engine charges the one
// WorkBudget it is handed, once, in the units the global registry counts.
//
// WorkMeter.*Agrees: one search per engine with metrics on; the budget's
// counts must equal the registry's deltas on every shared counter (the
// registry is zeroed per test, so its values are the deltas).
// WorkMeter.KaltCapCountsThePhastPass: the daemon's PHAST pass is distance
// work, so an `edges=` cap between the request's work without PHAST and its
// work with it stops the request.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/algorithms.hpp"
#include "attack/oracle.hpp"
#include "citygen/generate.hpp"
#include "core/budget.hpp"
#include "graph/cch.hpp"
#include "graph/ch_table.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/dijkstra.hpp"
#include "graph/yen.hpp"
#include "lp/simplex.hpp"
#include "net/engine.hpp"
#include "net/snapshot.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

/// Every (budget count, registry counter) pair the two ledgers share.
void expect_ledgers_agree(const WorkBudget& budget, const test::ScopedMetrics& metrics) {
  const std::pair<std::uint64_t, const char*> pairs[] = {
      {budget.dijkstra_runs, "dijkstra.runs"},
      {budget.nodes_settled, "dijkstra.nodes_settled"},
      {budget.edges_scanned, "dijkstra.edges_scanned"},
      {budget.spur_searches, "yen.spur_searches"},
      {budget.spurs_pruned, "yen.spurs_pruned"},
      {budget.lp_pivots, "lp.pivots"},
      {budget.oracle_calls, "oracle.calls"},
      {budget.ch_queries, "ch.queries"},
      {budget.ch_nodes_settled, "ch.nodes_settled"},
  };
  for (const auto& [count, counter] : pairs) {
    EXPECT_EQ(count, metrics.counter(counter)) << counter;
  }
}

/// A 6x6 grid with uneven weights: enough simple paths for a real ranking.
test::WeightedGraph grid() { return test::make_grid(6, 6, 1.0, 1.37); }

TEST(WorkMeter, DijkstraAgrees) {
  const auto wg = grid();
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  DijkstraOptions options;
  options.target = NodeId(35);
  options.budget = &budget;
  SearchSpace ws;
  dijkstra(ws, wg.g, wg.weights, NodeId(0), options);
  options.target = NodeId::invalid();
  reverse_dijkstra(ws, wg.g, wg.weights, NodeId(35), options);
  EXPECT_EQ(budget.dijkstra_runs, 2u);
  EXPECT_GT(budget.edges_scanned, 0u);
  EXPECT_EQ(budget.distance_work(), budget.edges_scanned);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, YenAgrees) {
  const auto wg = grid();
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  YenOptions options;
  options.budget = &budget;
  ASSERT_EQ(yen_ksp(wg.g, wg.weights, NodeId(0), NodeId(35), 30, options).size(), 30u);
  EXPECT_GT(budget.spur_searches, 0u);
  EXPECT_GT(budget.spurs_pruned, 0u);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, SimplexAgrees) {
  CoveringProblem lp;
  lp.costs = {2.0, 2.0, 1.5, 1.5, 1.0};
  lp.sets = {{0, 2}, {0, 1}, {1, 3}, {3, 4}, {2, 4}};
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  LpOptions options;
  options.budget = &budget;
  const LpResult result = solve_lp(lp, options);
  ASSERT_EQ(result.status, LpStatus::Optimal);
  EXPECT_EQ(budget.lp_pivots, result.iterations);
  EXPECT_GT(budget.lp_pivots, 0u);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, OracleAgrees) {
  // p* is the unique shortest path (random weights), so the query returns
  // p* itself and the oracle certifies it with a rank-2 Yen ranking:
  // Dijkstra, Yen and the oracle all charge.
  Rng rng(5);
  const auto wg = test::make_random_graph(20, 60, rng);
  const auto ranked = yen_ksp(wg.g, wg.weights, NodeId(0), NodeId(19), 1);
  ASSERT_EQ(ranked.size(), 1u);
  const std::vector<double> costs(wg.g.num_edges(), 1.0);
  attack::ForcePathCutProblem problem;
  problem.graph = &wg.g;
  problem.weights = wg.weights;
  problem.costs = costs;
  problem.source = NodeId(0);
  problem.target = NodeId(19);
  problem.p_star = ranked[0];
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  const attack::ExclusivityOracle oracle(problem, &budget);
  EXPECT_FALSE(oracle.find_violating_path(EdgeFilter(wg.g.num_edges())).has_value());
  EXPECT_EQ(budget.oracle_calls, 1u);
  EXPECT_EQ(metrics.counter("oracle.tie_certifications"), 1u);
  EXPECT_GT(budget.spur_searches, 0u);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, AttackAgrees) {
  const auto wg = grid();
  const auto ranked = yen_ksp(wg.g, wg.weights, NodeId(0), NodeId(35), 12);
  ASSERT_EQ(ranked.size(), 12u);
  const std::vector<double> costs(wg.g.num_edges(), 1.0);
  attack::ForcePathCutProblem problem;
  problem.graph = &wg.g;
  problem.weights = wg.weights;
  problem.costs = costs;
  problem.source = NodeId(0);
  problem.target = NodeId(35);
  problem.p_star = ranked.back();
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  attack::AttackOptions options;
  options.budget = &budget;
  const auto result = run_attack(attack::Algorithm::LpPathCover, problem, options);
  ASSERT_EQ(result.status, attack::AttackStatus::Success);
  EXPECT_GT(budget.lp_pivots, 0u);
  EXPECT_EQ(budget.oracle_calls, result.oracle_calls);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, ChQueryAgrees) {
  const auto wg = grid();
  const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  ChSearchSpace ws;
  const auto result = ch.query(NodeId(0), NodeId(35), ws, &budget);
  EXPECT_EQ(budget.ch_queries, 1u);
  EXPECT_EQ(budget.ch_nodes_settled, result.nodes_settled);
  EXPECT_EQ(budget.distance_work(), budget.ch_nodes_settled);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, PhastAgrees) {
  const auto wg = grid();
  const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  ChSearchSpace ws;
  SearchSpace bounds;
  ch.bounds_to_target(NodeId(35), ws, bounds, &budget);
  EXPECT_GT(budget.ch_nodes_settled, 0u);
  EXPECT_EQ(budget.ch_queries, 0u);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, ChTableAgrees) {
  const auto wg = grid();
  const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
  ChTableQuery table(ch);
  const std::vector<NodeId> sources = {NodeId(0), NodeId(7)};
  const std::vector<NodeId> targets = {NodeId(35), NodeId(20), NodeId(3)};
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  static_cast<void>(table.table(sources, targets, &budget));
  EXPECT_GT(budget.ch_nodes_settled, 0u);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, CchAgrees) {
  const auto wg = grid();
  const auto ch = ContractionHierarchy::build(wg.g, wg.weights);
  const auto topology = CchTopology::build(wg.g, ch.ranks());
  CchMetric metric(topology, wg.weights);
  EdgeFilter filter(wg.g.num_edges());
  filter.remove(EdgeId(0));
  metric.recustomize(&filter);
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  SearchSpace bounds;
  metric.bounds_to_target(NodeId(35), bounds, &budget);
  EXPECT_GT(budget.ch_nodes_settled, 0u);
  expect_ledgers_agree(budget, metrics);
}

const net::Snapshot& small_city() {
  static const net::Snapshot snapshot(citygen::generate_city(citygen::City::Chicago, 0.15, 5));
  return snapshot;
}

net::Request kalt_request() {
  net::Request request;
  request.verb = net::Verb::Kalt;
  request.id = 1;
  request.weight = attack::WeightType::Time;
  request.source = 3;
  request.target = static_cast<std::uint32_t>(small_city().num_nodes() - 5);
  request.k = 5;
  return request;
}

TEST(WorkMeter, DaemonRequestAgrees) {
  // A daemon kalt runs the CH query, the PHAST pass and Yen's spurs, all
  // on the request's one budget.
  const test::ScopedMetrics metrics;
  WorkBudget budget;
  const net::Response response = net::QueryEngine(small_city(), WorkBudget{})
                                     .handle(kalt_request(), budget);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.field("paths"), "5");
  EXPECT_EQ(budget.ch_queries, 1u);
  EXPECT_GT(budget.spur_searches, 0u);
  expect_ledgers_agree(budget, metrics);
}

TEST(WorkMeter, KaltCapCountsThePhastPass) {
  const net::Request request = kalt_request();
  // The request's distance work, and the share its PHAST pass settles.
  std::uint64_t total = 0;
  std::uint64_t phast = 0;
  {
    const test::ScopedMetrics metrics;
    const net::Response response = net::QueryEngine(small_city(), WorkBudget{}).handle(request);
    ASSERT_TRUE(response.ok) << response.error;
    total = metrics.counter("dijkstra.edges_scanned") + metrics.counter("ch.nodes_settled");
  }
  {
    const test::ScopedMetrics metrics;
    ChSearchSpace ws;
    SearchSpace bounds;
    small_city().ch(/*time=*/true).bounds_to_target(NodeId(request.target), ws, bounds);
    phast = metrics.counter("ch.nodes_settled");
  }
  ASSERT_GE(phast, 2u);

  // Above the work without the PHAST pass, below the work with it.
  WorkBudget cap;
  cap.max_edges_scanned = total - phast / 2;
  const net::Response capped = net::QueryEngine(small_city(), cap).handle(request);
  EXPECT_FALSE(capped.ok);
  EXPECT_NE(capped.error.find("budget-exhausted: work budget exhausted: edges_scanned"),
            std::string::npos)
      << capped.error;
}

}  // namespace
}  // namespace mts
