// Simple directed paths expressed as edge sequences.
#pragma once

#include <span>
#include <vector>

#include "core/strong_id.hpp"
#include "graph/digraph.hpp"

namespace mts {

/// A directed path: consecutive edges where edge_to(edges[i]) ==
/// edge_from(edges[i+1]).  `length` is the sum of the weights it was found
/// under.  Equality compares edge sequences only (lengths are derived).
struct Path {
  std::vector<EdgeId> edges;
  double length = 0.0;

  [[nodiscard]] bool empty() const { return edges.empty(); }
  [[nodiscard]] std::size_t num_edges() const { return edges.size(); }

  /// Validates that every edge id is in range for `g` and consecutive edges
  /// are contiguous (edge_to(edges[i]) == edge_from(edges[i+1])).  With a
  /// non-empty `weights` vector additionally checks that `length` matches
  /// the recomputed sum to relative tolerance.  Throws InvariantViolation.
  void check_invariants(const DiGraph& g, std::span<const double> weights = {}) const;

  friend bool operator==(const Path& a, const Path& b) { return a.edges == b.edges; }
};

/// Sum of `weights` over `edges`.
double path_length(std::span<const EdgeId> edges, std::span<const double> weights);

/// The node sequence visited by `path` (size = edges + 1; empty for an
/// empty path).
std::vector<NodeId> path_nodes(const DiGraph& g, const Path& path);

/// Validates edge connectivity, endpoints, and node-simplicity.
bool is_simple_path(const DiGraph& g, const Path& path, NodeId source, NodeId target);

/// 64-bit FNV-1a signature of the edge sequence, in order (the same edges
/// in another order hash differently), for de-duplicating Yen candidates
/// and attack constraint paths.
std::uint64_t path_signature(const Path& path);

}  // namespace mts
