// Brandes' algorithm for (edge) betweenness centrality on weighted digraphs.
//
// The paper's attacker model (§II-A) performs topological analysis to find
// critical roads via their edge betweenness — the fraction of all-pairs
// shortest paths passing through each road segment.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/edge_filter.hpp"

namespace mts {

struct BetweennessOptions {
  /// If non-zero, sample this many source pivots instead of all nodes
  /// (estimates scale as n/pivots; results stay comparable across edges).
  std::size_t pivots = 0;
  /// Seed for pivot sampling.
  std::uint64_t seed = 1;
  /// Removed-edge mask.
  const EdgeFilter* filter = nullptr;
  /// If true, divide by n*(n-1) to get the fraction-of-pairs normalization
  /// used in the paper's definition.
  bool normalize = true;
};

/// Edge betweenness centrality (one value per edge).
std::vector<double> edge_betweenness(const DiGraph& g, std::span<const double> weights,
                                     const BetweennessOptions& options = {});

}  // namespace mts
