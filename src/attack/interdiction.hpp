// Shortest-path interdiction: "make all drivers traveling between common
// locations take much slower routes" (paper §II-A / Conclusion).
//
// Unlike Force Path Cut (which targets one chosen route), the interdictor
// simply maximizes the victim's optimal travel time between s and d under
// a removal budget.  Exact interdiction is NP-hard; we provide the
// standard greedy (remove the edge whose removal raises the s-d distance
// most per unit cost, recompute, repeat) plus a betweenness-guided
// variant for comparison in the ablation benches.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/edge_filter.hpp"

namespace mts::attack {

using mts::DiGraph;
using mts::EdgeFilter;
using mts::EdgeId;
using mts::NodeId;

enum class InterdictionStrategy {
  Greedy,       // exact marginal-gain greedy (|path| distance recomputations/step)
  Betweenness,  // precomputed edge-betweenness-to-cost ranking, restricted
                // to the current shortest path (cheaper, weaker)
};

struct InterdictionOptions {
  InterdictionStrategy strategy = InterdictionStrategy::Greedy;
};

struct InterdictionResult {
  std::vector<EdgeId> removed_edges;
  double total_cost = 0.0;
  double baseline_distance = 0.0;  // s-d distance before any removal
  double final_distance = 0.0;     // after removals
  std::size_t distance_queries = 0;

  [[nodiscard]] double delay_factor() const {
    return baseline_distance > 0.0 ? final_distance / baseline_distance : 1.0;
  }
};

/// Maximizes the s->d shortest-path distance subject to Σ cost <= budget,
/// stopping after 64 removals.  Never disconnects s from d (a disconnection
/// is a different attack — use area_isolation): a removal that would is
/// skipped.  Throws PreconditionViolation if d is unreachable from s to
/// begin with.
InterdictionResult interdict_route(const DiGraph& g, std::span<const double> weights,
                                   std::span<const double> costs, NodeId source, NodeId target,
                                   double budget,
                                   const InterdictionOptions& options = {});

}  // namespace mts::attack
