#include "attack/interdiction.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "graph/betweenness.hpp"
#include "graph/dijkstra.hpp"

namespace mts::attack {

namespace {

/// Stop after this many removals even if budget remains.
constexpr std::size_t kMaxRemovals = 64;

/// s->d distance under the filter, counting the query.
double query_distance(const DiGraph& g, std::span<const double> weights, NodeId s, NodeId d,
                      const EdgeFilter& filter, std::size_t& queries) {
  ++queries;
  return shortest_distance(g, weights, s, d, &filter);
}

/// Best edge on the current shortest path by exact marginal gain: tries
/// removing each candidate and measures the distance increase per cost,
/// skipping candidates whose removal disconnects s from d.
EdgeId pick_greedy(const DiGraph& g, std::span<const double> weights,
                   std::span<const double> costs, NodeId s, NodeId d, EdgeFilter& filter,
                   const Path& current, std::size_t& queries) {
  EdgeId best = EdgeId::invalid();
  double best_ratio = 0.0;
  for (EdgeId e : current.edges) {
    filter.remove(e);
    const double dist = query_distance(g, weights, s, d, filter, queries);
    filter.restore(e);
    if (dist == kInfiniteDistance) continue;
    const double gain = dist - current.length;
    const double ratio = gain / costs[e.value()];
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best = e;
    }
  }
  return best;
}

/// Betweenness-guided pick: highest precomputed betweenness-to-cost ratio
/// among the current path's edges whose removal keeps s connected to d (a
/// connectivity query per candidate, no distance lookahead).
EdgeId pick_betweenness(const DiGraph& g, std::span<const double> weights,
                        std::span<const double> costs, NodeId s, NodeId d, EdgeFilter& filter,
                        const Path& current, const std::vector<double>& betweenness,
                        std::size_t& queries) {
  std::vector<EdgeId> order(current.edges);
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return betweenness[a.value()] / costs[a.value()] >
           betweenness[b.value()] / costs[b.value()];
  });
  for (EdgeId e : order) {
    filter.remove(e);
    const bool connected =
        query_distance(g, weights, s, d, filter, queries) < kInfiniteDistance;
    filter.restore(e);
    if (connected) return e;
  }
  return EdgeId::invalid();
}

}  // namespace

InterdictionResult interdict_route(const DiGraph& g, std::span<const double> weights,
                                   std::span<const double> costs, NodeId source, NodeId target,
                                   double budget, const InterdictionOptions& options) {
  require(g.finalized(), "interdict_route: graph not finalized");
  require(weights.size() == g.num_edges(), "interdict_route: weights size mismatch");
  require(costs.size() == g.num_edges(), "interdict_route: costs size mismatch");
  require(budget >= 0.0, "interdict_route: negative budget");

  InterdictionResult result;
  EdgeFilter filter(g.num_edges());

  auto initial = shortest_path(g, weights, source, target);
  require(initial.has_value(), "interdict_route: target unreachable from source");
  ++result.distance_queries;
  result.baseline_distance = initial->length;
  result.final_distance = initial->length;

  std::vector<double> betweenness;
  if (options.strategy == InterdictionStrategy::Betweenness) {
    BetweennessOptions bopt;
    bopt.pivots = std::min<std::size_t>(64, g.num_nodes());
    betweenness = edge_betweenness(g, weights, bopt);
  }

  Path current = std::move(*initial);
  while (result.removed_edges.size() < kMaxRemovals) {
    EdgeId choice =
        options.strategy == InterdictionStrategy::Greedy
            ? pick_greedy(g, weights, costs, source, target, filter, current,
                          result.distance_queries)
            : pick_betweenness(g, weights, costs, source, target, filter, current, betweenness,
                               result.distance_queries);
    if (!choice.valid()) break;
    if (result.total_cost + costs[choice.value()] > budget) break;

    filter.remove(choice);
    result.removed_edges.push_back(choice);
    result.total_cost += costs[choice.value()];

    // The pick skipped every disconnecting removal, so a path remains.
    current = shortest_path(g, weights, source, target, &filter).value();
    ++result.distance_queries;
    result.final_distance = current.length;
  }
  return result;
}

}  // namespace mts::attack
