#include "graph/shortest_path_count.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mts {

/// Relative tolerance under which two path lengths count as tied.
constexpr double kTieRelEps = 1e-9;

std::uint64_t count_shortest_paths(const DiGraph& g, std::span<const double> weights,
                                   NodeId source, NodeId target, const EdgeFilter* filter,
                                   std::uint64_t cap) {
  DijkstraOptions options;
  options.filter = filter;
  const auto tree = dijkstra(g, weights, source, options);
  if (!tree.reached(target)) return 0;

  // Process nodes in distance order; sigma[v] = sum of sigma over tight
  // in-edges (u, v) with dist[u] + w == dist[v] within tolerance.
  std::vector<std::uint32_t> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return tree.dist[a] < tree.dist[b];
  });

  std::vector<std::uint64_t> sigma(g.num_nodes(), 0);
  sigma[source.value()] = 1;
  for (std::uint32_t idx : order) {
    const NodeId v{idx};
    if (!tree.reached(v) || v == source) continue;
    std::uint64_t total = 0;
    for (EdgeId e : g.in_edges(v)) {
      if (!edge_alive(filter, e)) continue;
      const NodeId u = g.edge_from(e);
      if (!tree.reached(u)) continue;
      const double through = tree.dist[u.value()] + weights[e.value()];
      const double eps = kTieRelEps * (1.0 + std::abs(tree.dist[v.value()]));
      if (std::abs(through - tree.dist[v.value()]) <= eps) {
        total = std::min(cap, total + sigma[u.value()]);
      }
    }
    sigma[v.value()] = total;
  }
  return sigma[target.value()];
}

}  // namespace mts
