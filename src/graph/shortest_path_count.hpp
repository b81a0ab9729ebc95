// Counting shortest paths — used to certify that a forced path is the
// *exclusive* shortest path (the Force Path Cut success condition).
#pragma once

#include <span>

#include "graph/dijkstra.hpp"

namespace mts {

/// Number of distinct shortest s->t paths under `weights` (capped at
/// `cap` to avoid overflow on dense tie structures), treating distances
/// within a 1e-9 relative tolerance as equal.  Returns 0 if t is
/// unreachable.
///
/// Precondition: no zero-weight cycles (road metrics are strictly
/// positive).  The DP processes nodes in distance order, which is only a
/// topological order of the tight-edge DAG when equal-distance nodes are
/// never mutually reachable through tight edges.
std::uint64_t count_shortest_paths(const DiGraph& g, std::span<const double> weights,
                                   NodeId source, NodeId target,
                                   const EdgeFilter* filter = nullptr,
                                   std::uint64_t cap = 1'000'000);

}  // namespace mts
