// Yen's algorithm for the k shortest loopless (simple) paths.
//
// The paper forces the victim onto the 100th-shortest path between source
// and destination ("path rank"); this module produces that ranked list.
// With the first path given, yen_ksp(k = 2) is also the "second shortest
// path different from P" query the attack layer uses to certify that the
// forced path p* is the *exclusive* shortest path after edge removals.
//
// Spur searches are goal-directed: one reverse Dijkstra from the
// destination per query provides exact lower bounds that prune spur
// relaxations which provably cannot beat the current admission bound.
// Results are bit-identical to unpruned Yen (DESIGN.md §9); the
// `yen.spurs_pruned` counter reports how many spurs the bound killed.
#pragma once

#include <span>
#include <vector>

#include "graph/dijkstra.hpp"

namespace mts {

struct YenOptions {
  /// Removed-edge mask applied to every search (nullptr = none).
  const EdgeFilter* filter = nullptr;
  /// Work meter (nullptr = uncapped and uncounted), charged one spur search
  /// per deviation position plus the underlying Dijkstra effort; the pruned
  /// spurs are added when the query ends.  Exceeding a cap throws
  /// BudgetExhausted (core/budget.hpp).
  WorkBudget* budget = nullptr;
  /// The shortest path under `filter`, when the caller already has it: it
  /// becomes rank 1 instead of the path extracted from the reverse tree.
  /// Must run source -> target; its length must be the forward-order edge
  /// sum.  With k = 2 this is the second-shortest-path query.
  const Path* first_path = nullptr;
  /// Externally computed reverse bounds: exact distances to `target` under
  /// `filter` in a bounds-only SearchSpace (e.g.
  /// ContractionHierarchy::bounds_to_target).  When set, yen_ksp skips its
  /// own reverse Dijkstra — but a bounds-only space has no parents to
  /// extract the first path from, so `first_path` must be set too.
  /// Bounds exactness keeps results identical (DESIGN.md §9/§14): candidate
  /// lengths are forward-order sums independent of the bounds, which only
  /// decide what gets pruned.
  const SearchSpace* reverse_bounds = nullptr;
};

/// Returns up to `k` simple paths from `source` to `target` in nondecreasing
/// length order (fewer if the graph has fewer distinct simple paths).
/// k = 0 returns an empty vector.
std::vector<Path> yen_ksp(const DiGraph& g, std::span<const double> weights, NodeId source,
                          NodeId target, std::size_t k, const YenOptions& options = {});

}  // namespace mts
