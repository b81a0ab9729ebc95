#include "graph/dijkstra.hpp"

#include <algorithm>
#include <cmath>
#include <source_location>
#include <string>

#include "core/check.hpp"
#include "core/error.hpp"
#include "obs/phase.hpp"

namespace mts {

namespace {

/// require() whose message is "<caller>: <what>", composed only on failure:
/// these checks run once per search, so a prefix built up front would
/// allocate on every Yen spur search and oracle query.
void require_for(bool condition, const char* caller, const char* what,
                 std::source_location loc = std::source_location::current()) {
  if (!condition) require(false, std::string(caller) + ": " + what, loc);
}

struct DijkstraCounters {
  obs::CounterId runs;
  obs::CounterId settled;
  obs::CounterId scanned;
  obs::CounterId reuses;

  static const DijkstraCounters& get() {
    static const DijkstraCounters counters{
        obs::MetricsRegistry::instance().counter("dijkstra.runs"),
        obs::MetricsRegistry::instance().counter("dijkstra.nodes_settled"),
        obs::MetricsRegistry::instance().counter("dijkstra.edges_scanned"),
        obs::MetricsRegistry::instance().counter("dijkstra.workspace_reuses"),
    };
    return counters;
  }
};

/// Shared label-setting core for the forward and reverse engines.
/// `Reverse` searches over in-edges, producing node -> origin distances.
template <bool Reverse>
void run_search(SearchSpace& ws, const DiGraph& g, std::span<const double> weights,
                NodeId origin, const DijkstraOptions& options, const char* caller) {
  require_for(g.finalized(), caller, "graph not finalized");
  require_for(origin.value() < g.num_nodes(), caller, "source out of range");
  if (options.assume_valid_weights) {
    MTS_DCHECK_EQ(weights.size(), g.num_edges());
  } else {
    validate_weights(g, weights, caller);
  }
  require_for(options.goal_bounds != &ws, caller, "goal_bounds must be a different workspace");
  MTS_DCHECK(options.goal_bounds != nullptr || options.prune_bound == kInfiniteDistance);

  obs::ScopedPhase phase("dijkstra");
  if (ws.begin(g.num_nodes())) obs::add(DijkstraCounters::get().reuses);
  std::uint64_t settled_count = 0;
  std::uint64_t edges_scanned = 0;
  std::uint64_t bound_pruned = 0;

  const auto* banned = options.banned_nodes;
  if (banned != nullptr) {
    require_for(banned->size() == g.num_nodes(), caller, "ban mask size mismatch");
  }

  const SearchSpace* bounds = options.goal_bounds;
  // Pad the bound so float summation-order slack can never prune a label
  // the exact search would have kept (same 1e-9 relative margin the
  // oracle's tie_epsilon uses).
  const double padded_bound =
      options.prune_bound == kInfiniteDistance
          ? kInfiniteDistance
          : options.prune_bound + 1e-9 * (1.0 + std::abs(options.prune_bound));

  if (banned == nullptr || !(*banned)[origin.value()]) {
    ws.set_label(origin, 0.0, EdgeId::invalid());
    ws.heap_push(0.0, origin);
  }

  while (!ws.heap_empty()) {
    const auto [dist, node] = ws.heap_pop();
    if (!ws.try_settle(node)) continue;  // lazy deletion
    ++settled_count;
    if (node == options.target) break;

    const auto edges = Reverse ? g.in_edges(node) : g.out_edges(node);
    if (options.budget != nullptr) {
      options.budget->charge_edges_scanned(edges.size());
    }
    for (EdgeId e : edges) {
      ++edges_scanned;
      if (!edge_alive(options.filter, e)) continue;
      const NodeId head = Reverse ? g.edge_from(e) : g.edge_to(e);
      if (ws.settled(head)) continue;
      if (banned != nullptr && (*banned)[head.value()]) continue;
      const double w = weights[e.value()];
      MTS_DCHECK_GE(w, 0.0);  // hoisted require: see validate_weights()
      const double candidate = dist + w;
      MTS_DCHECK_GE(candidate, dist);  // settled labels only ever grow
      if (bounds != nullptr) {
        const double lower = bounds->dist(head);
        if (lower == kInfiniteDistance) continue;  // cannot reach the target
        if (candidate + lower > padded_bound) {    // cannot matter
          ++bound_pruned;
          continue;
        }
      }
      if (candidate < ws.dist(head)) {
        ws.set_label(head, candidate, e);
        ws.heap_push(candidate, head);
      }
    }
  }

  ws.last = {settled_count, edges_scanned, bound_pruned};
  if (options.budget != nullptr) {
    ++options.budget->dijkstra_runs;
    options.budget->nodes_settled += settled_count;
  }
  const auto& counters = DijkstraCounters::get();
  obs::add(counters.runs);
  obs::add(counters.settled, settled_count);
  obs::add(counters.scanned, edges_scanned);
}

}  // namespace

void validate_weights(const DiGraph& g, std::span<const double> weights, const char* caller) {
  require_for(weights.size() == g.num_edges(), caller, "weight vector size mismatch");
  bool all_non_negative = true;
  for (const double w : weights) {
    // !(w >= 0) also catches NaN.
    all_non_negative = all_non_negative && w >= 0.0;
  }
  require_for(all_non_negative, caller, "negative edge weight");
}

void dijkstra(SearchSpace& ws, const DiGraph& g, std::span<const double> weights,
              NodeId source, const DijkstraOptions& options) {
  run_search<false>(ws, g, weights, source, options, "dijkstra");
}

void reverse_dijkstra(SearchSpace& ws, const DiGraph& g, std::span<const double> weights,
                      NodeId sink, const DijkstraOptions& options) {
  MTS_DCHECK(!options.target.valid());
  MTS_DCHECK(options.goal_bounds == nullptr);
  run_search<true>(ws, g, weights, sink, options, "reverse_dijkstra");
}

ShortestPathTree dijkstra(const DiGraph& g, std::span<const double> weights, NodeId source,
                          const DijkstraOptions& options) {
  SearchSpace& ws = thread_search_space();
  dijkstra(ws, g, weights, source, options);
  ShortestPathTree tree;
  const std::size_t n = g.num_nodes();
  tree.dist.resize(n);
  tree.parent_edge.resize(n);
  for (NodeId node : g.nodes()) {
    tree.dist[node.value()] = ws.dist(node);
    tree.parent_edge[node.value()] = ws.parent_edge(node);
  }
  return tree;
}

std::optional<Path> extract_path(const DiGraph& g, const SearchSpace& ws,
                                 NodeId source, NodeId target) {
  if (!ws.reached(target)) return std::nullopt;
  Path path;
  path.length = ws.dist(target);
  NodeId cursor = target;
  while (cursor != source) {
    const EdgeId e = ws.parent_edge(cursor);
    if (!e.valid()) return std::nullopt;  // tree truncated before source
    path.edges.push_back(e);
    cursor = g.edge_from(e);
  }
  std::reverse(path.edges.begin(), path.edges.end());
  MTS_DCHECK(path.edges.empty() || g.edge_from(path.edges.front()) == source);
  return path;
}

std::optional<Path> extract_reverse_path(const DiGraph& g, const SearchSpace& ws,
                                         std::span<const double> weights, NodeId source,
                                         NodeId target) {
  if (!ws.reached(source)) return std::nullopt;
  Path path;
  double length = 0.0;
  NodeId cursor = source;
  while (cursor != target) {
    const EdgeId e = ws.parent_edge(cursor);
    if (!e.valid()) return std::nullopt;
    path.edges.push_back(e);
    length += weights[e.value()];
    cursor = g.edge_to(e);
  }
  path.length = length;
  MTS_DCHECK(path.edges.empty() || g.edge_from(path.edges.front()) == source);
  return path;
}

std::optional<Path> shortest_path(const DiGraph& g, std::span<const double> weights,
                                  NodeId source, NodeId target, const EdgeFilter* filter) {
  DijkstraOptions options;
  options.target = target;
  options.filter = filter;
  SearchSpace& ws = thread_search_space();
  dijkstra(ws, g, weights, source, options);
  return extract_path(g, ws, source, target);
}

double shortest_distance(const DiGraph& g, std::span<const double> weights, NodeId source,
                         NodeId target, const EdgeFilter* filter) {
  DijkstraOptions options;
  options.target = target;
  options.filter = filter;
  SearchSpace& ws = thread_search_space();
  dijkstra(ws, g, weights, source, options);
  require(target.value() < g.num_nodes(), "shortest_distance: target out of range");
  return ws.dist(target);
}

}  // namespace mts
