// SVG rendering of attack experiments (paper Figures 1-4).
//
// Reproduces the figures' visual language: grey street network, blue
// chosen alternative route p*, red removed road segments, blue source dot,
// yellow hospital dot.
#pragma once

#include <string>
#include <vector>

#include "graph/path.hpp"
#include "osm/road_network.hpp"

namespace mts::viz {

using mts::EdgeId;
using mts::NodeId;
using mts::Path;

struct RenderOptions {
  /// Caption drawn in the top margin (empty = none).
  std::string title;
};

/// Renders the network with an attack overlay to a 1200 px wide SVG string.
std::string render_attack_svg(const osm::RoadNetwork& network, const Path& p_star,
                              const std::vector<EdgeId>& removed_edges, NodeId source,
                              NodeId target, const RenderOptions& options = {});

/// Writes the SVG to `path` (creating parent directories).
void save_attack_svg(const std::string& path, const osm::RoadNetwork& network,
                     const Path& p_star, const std::vector<EdgeId>& removed_edges,
                     NodeId source, NodeId target, const RenderOptions& options = {});

}  // namespace mts::viz
