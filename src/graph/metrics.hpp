// Street-network shape metrics.
//
// The paper's topology result hinges on how "lattice" a city is (Chicago
// very lattice, Boston organic).  We quantify latticeness with Boeing-style
// orientation order (entropy of edge bearings) plus the 4-way intersection
// share, so the claim can be tested as a controlled sweep rather than by
// eyeballing maps.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"

namespace mts {

struct NetworkMetrics {
  std::size_t num_nodes = 0;
  std::size_t num_edges = 0;
  double average_degree = 0.0;        // 2|E|/|V| (paper Table I)
  double orientation_entropy = 0.0;   // Shannon entropy of bearings, nats
  double orientation_order = 0.0;     // 1 = perfect grid, 0 = uniform bearings
  double four_way_share = 0.0;        // fraction of intersections with degree 4
  double mean_segment_length = 0.0;   // Euclidean, meters
};

/// Computes shape metrics from node positions and topology.
NetworkMetrics compute_network_metrics(const DiGraph& g);

/// Boeing (2019) orientation-order score phi in [0, 1]: 1 - a normalized
/// entropy of edge bearings folded into [0, 90) degrees and binned into 18
/// 5-degree bins.  Exposed separately for tests.
double orientation_order(const std::vector<double>& bearings_deg);

}  // namespace mts
