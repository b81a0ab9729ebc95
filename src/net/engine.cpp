#include "net/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "attack/algorithms.hpp"
#include "attack/problem.hpp"
#include "attack/verify.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "graph/path.hpp"
#include "obs/metrics.hpp"

namespace mts::net {

namespace {

Response ok_response(std::uint64_t id, const char* verb) {
  Response response;
  response.id = id;
  response.ok = true;
  response.verb = verb;
  return response;
}

bool stats_relevant(const std::string& name) {
  return name.rfind("routed.", 0) == 0 || name.rfind("dijkstra.", 0) == 0 ||
         name.rfind("yen.", 0) == 0 || name.rfind("ch.", 0) == 0;
}

}  // namespace

void append_registry_stats(Response& response) {
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::instance().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (!stats_relevant(counter.name)) continue;
    response.fields.emplace_back(counter.name, std::to_string(counter.value));
  }
  for (const auto& hist : snapshot.histograms) {
    if (!stats_relevant(hist.name)) continue;
    response.fields.emplace_back(hist.name + ".count", std::to_string(hist.count));
    response.fields.emplace_back(hist.name + ".p50", format_wire_double(hist.quantile(0.50)));
    response.fields.emplace_back(hist.name + ".p99", format_wire_double(hist.quantile(0.99)));
  }
  // One global key sort across everything accumulated so far (including
  // any server.*/window.* fields the caller added first): the stats wire
  // format promises sorted keys regardless of which layer contributed.
  std::sort(response.fields.begin(), response.fields.end());
}

QueryEngine::QueryEngine(const Snapshot& snapshot, const WorkBudget& budget_template)
    : snapshot_(&snapshot), budget_template_(budget_template) {}

Response QueryEngine::handle(const Request& request) {
  WorkBudget budget = budget_template_;
  return handle(request, budget);
}

Response QueryEngine::handle(const Request& request, WorkBudget& budget) {
  try {
    // Value site: Stall emulates a slow handler (the worker sleeps, the
    // request then completes normally); everything else escalates.
    switch (const fault::Action action = MTS_FAULT_ACTION("routed.request")) {
      case fault::Action::None:
        break;
      case fault::Action::Stall:
        fault::stall();
        break;
      default:
        fault::throw_injected("routed.request", action);
    }
    return dispatch(request, budget);
  } catch (...) {
    Response response;
    response.id = request.id;
    response.ok = false;
    response.error = current_exception_taxonomy();
    return response;
  }
}

Response QueryEngine::dispatch(const Request& request, WorkBudget& budget) {
  switch (request.verb) {
    case Verb::Ping:
      return ok_response(request.id, "pong");
    case Verb::Graph: {
      Response response = ok_response(request.id, "graph");
      response.fields.emplace_back("nodes", std::to_string(snapshot_->num_nodes()));
      response.fields.emplace_back("edges", std::to_string(snapshot_->num_edges()));
      response.fields.emplace_back("pois", std::to_string(snapshot_->num_pois()));
      return response;
    }
    case Verb::Stats: {
      // The engine answers with the registry slice it can see; the server
      // intercepts this verb before the queue to add its own always-on
      // server.* / window.* fields (net/server.cpp).
      Response response = ok_response(request.id, "stats");
      append_registry_stats(response);
      return response;
    }
    case Verb::Route:
      return route(request, budget);
    case Verb::Kalt:
      return alternatives(request, budget);
    case Verb::Table:
      return table(request, budget);
    case Verb::Attack:
      return attack(request, budget);
  }
  throw InvalidInput("unhandled request verb");
}

const ContractionHierarchy& QueryEngine::ch_for(const Request& request) const {
  return snapshot_->ch(request.weight == WeightKind::Time);
}

ChTableQuery& QueryEngine::table_query_for(const Request& request) {
  std::unique_ptr<ChTableQuery>& slot =
      request.weight == WeightKind::Time ? time_table_ : length_table_;
  if (slot == nullptr) slot = std::make_unique<ChTableQuery>(ch_for(request));
  return *slot;
}

std::optional<Path> QueryEngine::ch_path(const Request& request, WorkBudget& budget) {
  // Re-summing the unpacked path in forward edge order is the accumulation
  // Dijkstra's extract_path does, so the wire distance matches a plain
  // Dijkstra's byte for byte.
  auto result = ch_for(request).query(NodeId(request.source), NodeId(request.target),
                                      ch_workspace_, &budget);
  if (result.path) {
    result.path->length =
        path_length(result.path->edges, snapshot_->weights(request.weight == WeightKind::Time));
  }
  return std::move(result.path);
}

YenOptions QueryEngine::ranking_options(const Request& request, WorkBudget& budget,
                                        const std::optional<Path>& first) {
  // The CH path replaces Yen's opening rank-1 Dijkstra and one PHAST pass
  // its reverse bound tree; the spur searches then run goal-bounded
  // against the PHAST distances exactly as against the reverse tree
  // (DESIGN.md §14).
  YenOptions options;
  options.budget = &budget;
  if (first) {
    ch_for(request).bounds_to_target(NodeId(request.target), ch_workspace_, reverse_bounds_,
                                     &budget);
    options.reverse_bounds = &reverse_bounds_;
    options.first_path = &*first;
  }
  return options;
}

void QueryEngine::check_endpoints(const Request& request) const {
  const std::size_t num_nodes = snapshot_->num_nodes();
  if (request.source >= num_nodes) {
    throw InvalidInput("source node " + std::to_string(request.source) +
                       " out of range (graph has " + std::to_string(num_nodes) + " nodes)");
  }
  if (request.target >= num_nodes) {
    throw InvalidInput("target node " + std::to_string(request.target) +
                       " out of range (graph has " + std::to_string(num_nodes) + " nodes)");
  }
}

Response QueryEngine::route(const Request& request, WorkBudget& budget) {
  check_endpoints(request);
  Response response = ok_response(request.id, "route");
  if (request.source == request.target) {
    response.fields.emplace_back("found", "1");
    response.fields.emplace_back("dist", "0");
    response.fields.emplace_back("hops", "0");
    return response;
  }

  const std::optional<Path> path = ch_path(request, budget);
  response.fields.emplace_back("found", path ? "1" : "0");
  response.fields.emplace_back("dist", format_wire_double(path ? path->length : kInfiniteDistance));
  response.fields.emplace_back("hops", std::to_string(path ? path->edges.size() : 0));
  return response;
}

Response QueryEngine::alternatives(const Request& request, WorkBudget& budget) {
  check_endpoints(request);
  if (request.source == request.target) {
    throw InvalidInput("kalt requires distinct endpoints, got node " +
                       std::to_string(request.source) + " twice");
  }
  const std::optional<Path> first = ch_path(request, budget);
  if (!first) {
    Response response = ok_response(request.id, "kalt");
    response.fields.emplace_back("paths", "0");
    response.fields.emplace_back("best", format_wire_double(0.0));
    response.fields.emplace_back("worst", format_wire_double(0.0));
    return response;
  }
  const YenOptions options = ranking_options(request, budget, first);
  const std::vector<Path> paths =
      yen_ksp(snapshot_->graph(), snapshot_->weights(request.weight == WeightKind::Time),
              NodeId(request.source), NodeId(request.target), request.k, options);

  Response response = ok_response(request.id, "kalt");
  response.fields.emplace_back("paths", std::to_string(paths.size()));
  response.fields.emplace_back("best",
                               format_wire_double(paths.empty() ? 0.0 : paths.front().length));
  response.fields.emplace_back("worst",
                               format_wire_double(paths.empty() ? 0.0 : paths.back().length));
  return response;
}

Response QueryEngine::table(const Request& request, WorkBudget& budget) {
  const std::size_t num_nodes = snapshot_->num_nodes();
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  sources.reserve(request.sources.size());
  targets.reserve(request.targets.size());
  for (std::uint32_t s : request.sources) {
    if (s >= num_nodes) {
      throw InvalidInput("table source node " + std::to_string(s) + " out of range (graph has " +
                         std::to_string(num_nodes) + " nodes)");
    }
    sources.emplace_back(s);
  }
  for (std::uint32_t t : request.targets) {
    if (t >= num_nodes) {
      throw InvalidInput("table target node " + std::to_string(t) + " out of range (graph has " +
                         std::to_string(num_nodes) + " nodes)");
    }
    targets.emplace_back(t);
  }
  const std::vector<double> values = table_query_for(request).table(sources, targets, &budget);

  std::string joined;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ',';
    joined += format_wire_double(values[i]);
  }
  Response response = ok_response(request.id, "table");
  response.fields.emplace_back("rows", std::to_string(sources.size()));
  response.fields.emplace_back("cols", std::to_string(targets.size()));
  response.fields.emplace_back("vals", std::move(joined));
  return response;
}

Response QueryEngine::attack(const Request& request, WorkBudget& budget) {
  check_endpoints(request);
  if (request.source == request.target) {
    throw InvalidInput("attack requires distinct endpoints, got node " +
                       std::to_string(request.source) + " twice");
  }
  const auto& weights = snapshot_->weights(request.weight == WeightKind::Time);

  // No path at all: yen_ksp returns empty and the rank-unavailable branch
  // answers.
  const std::optional<Path> first = ch_path(request, budget);
  const YenOptions yen_options = ranking_options(request, budget, first);
  std::vector<Path> ranked = yen_ksp(snapshot_->graph(), weights, NodeId(request.source),
                                     NodeId(request.target), request.rank, yen_options);

  Response response = ok_response(request.id, "attack");
  if (ranked.size() < request.rank) {
    // Fewer simple paths exist than the requested rank: nothing to force.
    response.fields.emplace_back("status", "rank-unavailable");
    response.fields.emplace_back("removed", "0");
    response.fields.emplace_back("cost", "0");
    return response;
  }

  attack::ForcePathCutProblem problem;
  problem.graph = &snapshot_->graph();
  problem.weights = weights;
  problem.costs = snapshot_->uniform_costs();
  problem.source = NodeId(request.source);
  problem.target = NodeId(request.target);
  problem.p_star = std::move(ranked.back());
  ranked.pop_back();
  problem.seed_paths = std::move(ranked);

  attack::AttackOptions attack_options;
  attack_options.rng_seed = request.id;  // deterministic per request
  attack_options.budget = &budget;
  const attack::AttackResult result = run_attack(request.algorithm, problem, attack_options);

  if (result.status == attack::AttackStatus::Success) {
    const attack::VerifyReport report = verify_attack(problem, result.removed_edges);
    if (!report.ok) {
      throw InvariantViolation("attack verification failed: " + report.reason);
    }
  }

  response.fields.emplace_back("status", attack::to_string(result.status));
  response.fields.emplace_back("removed", std::to_string(result.num_removed()));
  response.fields.emplace_back("cost", format_wire_double(result.total_cost));
  return response;
}

}  // namespace mts::net
