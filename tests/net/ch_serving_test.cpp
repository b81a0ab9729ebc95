// CH serving against the reference engines, and shared-snapshot
// concurrency.
//
// ChServing: every wire answer of the CH-backed QueryEngine must equal the
// answer this test computes with the reference engines a plain daemon
// would use: shortest_path for route, plain yen_ksp for kalt, and plain
// yen_ksp plus run_attack without ChAssets for attack (byte for byte), and
// per-pair Dijkstra for table (at wire precision).  ChSharedSnapshot: many
// engines on many threads share one const Snapshot (and therefore its
// ContractionHierarchies); under TSan this is the data-race gate for the
// read-only sharing contract (ci.sh tsan leg).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/algorithms.hpp"
#include "citygen/generate.hpp"
#include "core/timer.hpp"
#include "graph/dijkstra.hpp"
#include "graph/yen.hpp"
#include "net/engine.hpp"
#include "net/protocol.hpp"
#include "net/snapshot.hpp"

namespace mts::net {
namespace {

const Snapshot& ch_snapshot() {
  static const Snapshot snapshot(citygen::generate_city(citygen::City::Chicago, 0.15, 5));
  return snapshot;
}

/// A deterministic request matrix covering every CH-served verb, both
/// weight kinds, and (via fixed node picks) reachable pairs.
std::vector<Request> parity_requests(std::size_t num_nodes) {
  std::vector<Request> requests;
  std::uint64_t id = 1;
  const auto node = [num_nodes](std::uint64_t i) {
    return static_cast<std::uint32_t>((i * 2654435761ULL) % num_nodes);
  };
  for (const WeightKind weight : {WeightKind::Time, WeightKind::Length}) {
    for (std::uint64_t i = 0; i < 12; ++i) {
      Request request;
      request.id = id++;
      request.weight = weight;
      request.source = node(3 * i + 1);
      request.target = node(5 * i + 2);
      if (request.source == request.target) request.target = (request.target + 1) % num_nodes;
      switch (i % 4) {
        case 0:
          request.verb = Verb::Route;
          break;
        case 1:
          request.verb = Verb::Kalt;
          request.k = 3;
          break;
        case 2:
          request.verb = Verb::Table;
          request.sources = {request.source, node(7 * i + 3), node(11 * i + 4)};
          request.targets = {request.target, node(13 * i + 5)};
          break;
        case 3:
          request.verb = Verb::Attack;
          request.rank = 2;
          request.algorithm = attack::Algorithm::GreedyPathCover;
          break;
      }
      requests.push_back(request);
    }
  }
  return requests;
}

std::vector<std::string> answer_all(const Snapshot& snapshot,
                                    const std::vector<Request>& requests) {
  QueryEngine engine(snapshot, WorkBudget{});
  std::vector<std::string> lines;
  lines.reserve(requests.size());
  for (const Request& request : requests) {
    lines.push_back(serialize_response(engine.handle(request)));
  }
  return lines;
}

/// The wire answer the reference engines give for `request` (distinct
/// endpoints, every verb parity_requests emits).
std::string reference_answer(const Snapshot& snapshot, const Request& request) {
  const DiGraph& g = snapshot.graph();
  const auto& weights = snapshot.weights(request.weight == WeightKind::Time);
  const NodeId source(request.source);
  const NodeId target(request.target);
  Response response;
  response.id = request.id;
  response.ok = true;
  const auto add = [&response](const char* key, std::string value) {
    response.fields.emplace_back(key, std::move(value));
  };
  switch (request.verb) {
    case Verb::Route: {
      response.verb = "route";
      const auto path = shortest_path(g, weights, source, target);
      add("found", path ? "1" : "0");
      add("dist", format_wire_double(path ? path->length : kInfiniteDistance));
      add("hops", std::to_string(path ? path->edges.size() : 0));
      break;
    }
    case Verb::Kalt: {
      response.verb = "kalt";
      const auto paths = yen_ksp(g, weights, source, target, request.k);
      add("paths", std::to_string(paths.size()));
      add("best", format_wire_double(paths.empty() ? 0.0 : paths.front().length));
      add("worst", format_wire_double(paths.empty() ? 0.0 : paths.back().length));
      break;
    }
    case Verb::Table: {
      response.verb = "table";
      std::string vals;
      for (const std::uint32_t s : request.sources) {
        for (const std::uint32_t t : request.targets) {
          if (!vals.empty()) vals += ',';
          vals += format_wire_double(shortest_distance(g, weights, NodeId(s), NodeId(t)));
        }
      }
      add("rows", std::to_string(request.sources.size()));
      add("cols", std::to_string(request.targets.size()));
      add("vals", vals);
      break;
    }
    case Verb::Attack: {
      response.verb = "attack";
      std::vector<Path> ranked = yen_ksp(g, weights, source, target, request.rank);
      if (ranked.size() < request.rank) {
        add("status", "rank-unavailable");
        add("removed", "0");
        add("cost", "0");
        break;
      }
      attack::ForcePathCutProblem problem;
      problem.graph = &g;
      problem.weights = weights;
      problem.costs = snapshot.uniform_costs();
      problem.source = source;
      problem.target = target;
      problem.p_star = std::move(ranked.back());
      ranked.pop_back();
      problem.seed_paths = std::move(ranked);
      attack::AttackOptions options;
      options.rng_seed = request.id;
      const attack::AttackResult result = run_attack(request.algorithm, problem, options);
      add("status", attack::to_string(result.status));
      add("removed", std::to_string(result.num_removed()));
      add("cost", format_wire_double(result.total_cost));
      break;
    }
    default:
      ADD_FAILURE() << "no reference for " << serialize_request(request);
  }
  return serialize_response(response);
}

TEST(ChServing, ResponsesByteIdenticalToDijkstraServing) {
  const auto requests = parity_requests(ch_snapshot().num_nodes());
  const auto ch_lines = answer_all(ch_snapshot(), requests);
  ASSERT_EQ(ch_lines.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(ch_lines[i], reference_answer(ch_snapshot(), requests[i]))
        << "request " << serialize_request(requests[i]);
  }
}

TEST(ChServing, TableMatchesDirectDijkstra) {
  Request request;
  request.verb = Verb::Table;
  request.id = 7;
  request.weight = WeightKind::Time;
  request.sources = {1, 9, 33};
  request.targets = {70, 4};
  QueryEngine engine(ch_snapshot(), WorkBudget{});
  const Response response = engine.handle(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.field("rows"), "3");
  EXPECT_EQ(response.field("cols"), "2");

  const auto& g = ch_snapshot().graph();
  const auto& weights = ch_snapshot().weights(true);
  const std::string vals = response.field("vals");
  std::vector<std::string> got;
  std::size_t pos = 0;
  while (pos <= vals.size()) {
    const std::size_t comma = vals.find(',', pos);
    got.push_back(vals.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  ASSERT_EQ(got.size(), 6u);
  // Compare in wire precision (%.9g): bucket sums associate additions
  // differently from a sequential path walk, so full-double equality is
  // not the contract — 9 significant digits on the wire is.
  std::size_t cell = 0;
  for (const std::uint32_t s : request.sources) {
    for (const std::uint32_t t : request.targets) {
      const double expected = shortest_distance(g, weights, NodeId(s), NodeId(t));
      EXPECT_EQ(got[cell], format_wire_double(expected)) << "cell " << cell;
      ++cell;
    }
  }
}

TEST(ChServing, TableRejectsOutOfRangeNodes) {
  Request request;
  request.verb = Verb::Table;
  request.id = 8;
  request.sources = {0};
  request.targets = {static_cast<std::uint32_t>(ch_snapshot().num_nodes())};
  QueryEngine engine(ch_snapshot(), WorkBudget{});
  const Response response = engine.handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("invalid-input"), std::string::npos) << response.error;
}

TEST(ChServing, TableStopsAtExpiredDeadline) {
  // Budget caps are covered end to end (RoutedE2e); a deadline that has
  // already passed must stop the table at its first search, as it stops
  // a route.
  Request request;
  request.verb = Verb::Table;
  request.id = 9;
  request.sources = {1, 9};
  request.targets = {70, 4};
  const Stopwatch clock;
  WorkBudget budget;
  budget.arm_deadline(&clock, 0.0);
  const Response late = QueryEngine(ch_snapshot(), WorkBudget{}).handle(request, budget);
  EXPECT_FALSE(late.ok);
  EXPECT_NE(late.error.find("deadline-exceeded"), std::string::npos) << late.error;
}

TEST(ChSharedSnapshot, ConcurrentEnginesProduceIdenticalAnswers) {
  const auto requests = parity_requests(ch_snapshot().num_nodes());
  const auto baseline = answer_all(ch_snapshot(), requests);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&requests, &results, i] {
      results[i] = answer_all(ch_snapshot(), requests);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(results[i], baseline) << "thread " << i;
  }
}

}  // namespace
}  // namespace mts::net
