// Dijkstra shortest paths with edge filtering, early exit, and optional
// goal-directed pruning over a reusable SearchSpace workspace.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/budget.hpp"
#include "graph/digraph.hpp"
#include "graph/edge_filter.hpp"
#include "graph/path.hpp"
#include "graph/search_space.hpp"

namespace mts {

/// Result of a (possibly truncated) Dijkstra run from one source.
struct ShortestPathTree {
  std::vector<double> dist;        // per node; +inf if unreached
  std::vector<EdgeId> parent_edge; // per node; invalid() at source/unreached

  [[nodiscard]] bool reached(NodeId n) const {
    return dist[n.value()] < kInfiniteDistance;
  }
};

struct DijkstraOptions {
  /// Stop as soon as this node is settled (invalid() = full SSSP).
  NodeId target = NodeId::invalid();
  /// Removed-edge mask (nullptr = none).
  const EdgeFilter* filter = nullptr;
  /// Per-node ban mask sized num_nodes (nullptr = none); banned nodes are
  /// never relaxed.  Used by Yen's spur searches.
  const std::vector<std::uint8_t>* banned_nodes = nullptr;
  /// Reverse shortest-path tree rooted at `target` supplying admissible
  /// lower bounds dist(n -> target) (nullptr = none).  The tree must have
  /// been built under weights <= the search weights and a filter removing
  /// no more edges than the search filter, so its distances never
  /// overestimate.  The search stays settle-by-g Dijkstra; the bounds only
  /// prune relaxations that provably cannot matter (see DESIGN.md §9):
  /// nodes that cannot reach the target at all, and — when `prune_bound`
  /// is finite — labels whose certified total g + bound already exceeds
  /// the bound plus a 1e-9 relative float margin.
  const SearchSpace* goal_bounds = nullptr;
  /// Upper bound on useful source->target lengths (see `goal_bounds`).
  double prune_bound = kInfiniteDistance;
  /// Skip the one-shot validate_weights() pass — the caller already
  /// validated this exact weight vector (e.g. once per Yen query instead
  /// of once per spur search).
  bool assume_valid_weights = false;
  /// Work meter (nullptr = uncapped and uncounted): charged once per
  /// settled node with the edges scanned from it; the run and its settled
  /// nodes are added on completion.  Exceeding the cap throws
  /// BudgetExhausted out of the search; the workspace stays reusable.
  WorkBudget* budget = nullptr;
};

/// One-shot weight validation, hoisted out of the relaxation loops: the
/// vector must have one entry per edge and every weight must be
/// non-negative (NaN rejected).  `caller` prefixes the error message.
void validate_weights(const DiGraph& g, std::span<const double> weights, const char* caller);

/// Runs Dijkstra from `source` into `ws` (previous contents invalidated).
/// Read results via ws.dist()/ws.parent_edge()/extract_path().
void dijkstra(SearchSpace& ws, const DiGraph& g, std::span<const double> weights,
              NodeId source, const DijkstraOptions& options = {});

/// Dijkstra over in-edges: ws.dist(n) becomes the n -> `sink` distance and
/// ws.parent_edge(n) the first edge of an optimal n -> sink path.  Feeds
/// DijkstraOptions::goal_bounds.  `options.target` and `options.goal_bounds`
/// must be unset (a reverse search is always a full SSSP).
void reverse_dijkstra(SearchSpace& ws, const DiGraph& g, std::span<const double> weights,
                      NodeId sink, const DijkstraOptions& options = {});

/// Convenience wrapper: runs in a thread-local workspace and copies the
/// labels out into a standalone tree.
ShortestPathTree dijkstra(const DiGraph& g, std::span<const double> weights, NodeId source,
                          const DijkstraOptions& options = {});

/// Extracts the source->target path from a forward search's workspace, or
/// nullopt if unreached.
std::optional<Path> extract_path(const DiGraph& g, const SearchSpace& ws,
                                 NodeId source, NodeId target);

/// Extracts the forward source->target path from a *reverse* tree (parents
/// point toward the sink).  `length` is recomputed as the forward-order
/// weight sum so it is bit-identical to what a forward search returns.
std::optional<Path> extract_reverse_path(const DiGraph& g, const SearchSpace& ws,
                                         std::span<const double> weights, NodeId source,
                                         NodeId target);

/// One-shot shortest path query (early-exit Dijkstra + extraction).
std::optional<Path> shortest_path(const DiGraph& g, std::span<const double> weights,
                                  NodeId source, NodeId target,
                                  const EdgeFilter* filter = nullptr);

/// Shortest-path distance only (+inf if unreachable).
double shortest_distance(const DiGraph& g, std::span<const double> weights, NodeId source,
                         NodeId target, const EdgeFilter* filter = nullptr);

}  // namespace mts
