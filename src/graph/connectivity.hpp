// Strongly connected components.
//
// City generators keep only the largest SCC so every sampled (source,
// hospital) pair is mutually routable, matching the OSMnx preprocessing
// the paper relies on.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "graph/edge_filter.hpp"

namespace mts {

struct SccResult {
  std::vector<std::uint32_t> component;  // per node, dense component ids
  std::size_t num_components = 0;

  /// Id of a component with the most nodes.
  [[nodiscard]] std::uint32_t largest() const;
  /// Size of each component.
  [[nodiscard]] std::vector<std::size_t> sizes() const;
};

/// Tarjan's strongly connected components (iterative).
SccResult strongly_connected_components(const DiGraph& g, const EdgeFilter* filter = nullptr);

}  // namespace mts
