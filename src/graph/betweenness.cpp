#include "graph/betweenness.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "graph/dijkstra.hpp"

namespace mts {

namespace {

struct QueueEntry {
  double dist;
  NodeId node;
  friend bool operator<(const QueueEntry& a, const QueueEntry& b) {
    return a.dist > b.dist;
  }
};

/// Accumulates Brandes dependencies from one source into edge scores.
/// Weighted variant: predecessor DAG built by Dijkstra with
/// epsilon-tolerant tie detection.
void accumulate_from_source(const DiGraph& g, std::span<const double> weights,
                            const EdgeFilter* filter, NodeId source,
                            std::vector<double>& edge_score) {
  const std::size_t n = g.num_nodes();
  std::vector<double> dist(n, kInfiniteDistance);
  std::vector<double> sigma(n, 0.0);            // # shortest paths
  std::vector<std::vector<EdgeId>> preds(n);    // predecessor edges
  std::vector<NodeId> settle_order;
  settle_order.reserve(n);
  std::vector<std::uint8_t> settled(n, 0);

  std::priority_queue<QueueEntry> queue;
  dist[source.value()] = 0.0;
  sigma[source.value()] = 1.0;
  queue.push({0.0, source});

  while (!queue.empty()) {
    const auto [d, node] = queue.top();
    queue.pop();
    if (settled[node.value()]) continue;
    settled[node.value()] = 1;
    settle_order.push_back(node);
    for (EdgeId e : g.out_edges(node)) {
      if (!edge_alive(filter, e)) continue;
      const NodeId head = g.edge_to(e);
      if (settled[head.value()]) continue;
      const double candidate = d + weights[e.value()];
      const double eps = 1e-12 * (1.0 + std::abs(candidate));
      if (candidate < dist[head.value()] - eps) {
        dist[head.value()] = candidate;
        sigma[head.value()] = sigma[node.value()];
        preds[head.value()].assign(1, e);
        queue.push({candidate, head});
      } else if (candidate <= dist[head.value()] + eps) {
        sigma[head.value()] += sigma[node.value()];
        preds[head.value()].push_back(e);
      }
    }
  }

  // Dependency accumulation in reverse settle order.
  std::vector<double> delta(n, 0.0);
  for (auto it = settle_order.rbegin(); it != settle_order.rend(); ++it) {
    const NodeId w = *it;
    for (EdgeId e : preds[w.value()]) {
      const NodeId v = g.edge_from(e);
      const double share = sigma[v.value()] / sigma[w.value()] * (1.0 + delta[w.value()]);
      edge_score[e.value()] += share;
      delta[v.value()] += share;
    }
  }
}

std::vector<NodeId> pick_sources(const DiGraph& g, const BetweennessOptions& options) {
  std::vector<NodeId> sources;
  if (options.pivots == 0 || options.pivots >= g.num_nodes()) {
    sources.reserve(g.num_nodes());
    for (NodeId u : g.nodes()) sources.push_back(u);
    return sources;
  }
  std::vector<NodeId> all;
  all.reserve(g.num_nodes());
  for (NodeId u : g.nodes()) all.push_back(u);
  Rng rng(options.seed);
  rng.shuffle(all);
  all.resize(options.pivots);
  return all;
}

}  // namespace

std::vector<double> edge_betweenness(const DiGraph& g, std::span<const double> weights,
                                     const BetweennessOptions& options) {
  require(g.finalized(), "betweenness: graph not finalized");
  require(weights.size() == g.num_edges(), "betweenness: weight vector size mismatch");

  std::vector<double> score(g.num_edges(), 0.0);
  const auto sources = pick_sources(g, options);
  for (NodeId s : sources) accumulate_from_source(g, weights, options.filter, s, score);

  const double n = static_cast<double>(g.num_nodes());
  double factor = 1.0;
  if (!sources.empty() && sources.size() < g.num_nodes()) {
    factor *= n / static_cast<double>(sources.size());  // pivot extrapolation
  }
  if (options.normalize && n > 1.0) factor /= n * (n - 1.0);
  for (double& v : score) v *= factor;
  return score;
}

}  // namespace mts
