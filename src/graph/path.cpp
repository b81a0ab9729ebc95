#include "graph/path.hpp"

#include <cmath>
#include <string>
#include <unordered_set>

#include "core/check.hpp"

namespace mts {

void Path::check_invariants(const DiGraph& g, std::span<const double> weights) const {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    enforce_invariant(edges[i].valid() && edges[i].value() < g.num_edges(),
                      "path edge " + std::to_string(i) + " out of range");
    if (i + 1 < edges.size()) {
      enforce_invariant(g.edge_to(edges[i]) == g.edge_from(edges[i + 1]),
                        "path discontiguous between edges " + std::to_string(i) + " and " +
                            std::to_string(i + 1));
    }
  }
  enforce_invariant(std::isfinite(length), "path length is not finite");
  if (!weights.empty()) {
    enforce_invariant(weights.size() == g.num_edges(),
                      "weight vector size != num_edges");
    const double recomputed = path_length(edges, weights);
    enforce_invariant(std::abs(recomputed - length) <= 1e-6 * (1.0 + std::abs(length)),
                      "path length " + std::to_string(length) +
                          " disagrees with recomputed " + std::to_string(recomputed));
  }
}

double path_length(std::span<const EdgeId> edges, std::span<const double> weights) {
  double total = 0.0;
  for (EdgeId e : edges) total += weights[e.value()];
  return total;
}

std::vector<NodeId> path_nodes(const DiGraph& g, const Path& path) {
  std::vector<NodeId> nodes;
  if (path.empty()) return nodes;
  nodes.reserve(path.edges.size() + 1);
  nodes.push_back(g.edge_from(path.edges.front()));
  for (EdgeId e : path.edges) nodes.push_back(g.edge_to(e));
  return nodes;
}

bool is_simple_path(const DiGraph& g, const Path& path, NodeId source, NodeId target) {
  if (path.empty()) return source == target;
  if (g.edge_from(path.edges.front()) != source) return false;
  if (g.edge_to(path.edges.back()) != target) return false;
  std::unordered_set<NodeId> seen;
  seen.insert(source);
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    if (i + 1 < path.edges.size() &&
        g.edge_to(path.edges[i]) != g.edge_from(path.edges[i + 1])) {
      return false;
    }
    if (!seen.insert(g.edge_to(path.edges[i])).second) return false;
  }
  return true;
}

std::uint64_t path_signature(const Path& path) {
  // FNV-1a over the edge id stream.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (EdgeId e : path.edges) {
    std::uint64_t v = e.value();
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace mts
