// GeoJSON export of networks and attacks.
//
// SVG figures match the paper; GeoJSON makes the same data loadable in
// real GIS tooling (QGIS, kepler.gl, geojson.io) with WGS84 coordinates
// recovered through the network's projection.
#pragma once

#include <string>
#include <vector>

#include "graph/path.hpp"
#include "osm/road_network.hpp"

namespace mts::viz {

using mts::EdgeId;
using mts::NodeId;
using mts::Path;

/// FeatureCollection with one LineString per road segment (property
/// "role": "road" | "p_star" | "removed", plus the segment's highway class,
/// lanes, length, artificial flag and name) and Point features for the
/// source ("role": "source") and target ("role": "target").
std::string render_attack_geojson(const osm::RoadNetwork& network, const Path& p_star,
                                  const std::vector<EdgeId>& removed_edges, NodeId source,
                                  NodeId target);

/// Writes the GeoJSON to `path` (creating parent directories).
void save_attack_geojson(const std::string& path, const osm::RoadNetwork& network,
                         const Path& p_star, const std::vector<EdgeId>& removed_edges,
                         NodeId source, NodeId target);

}  // namespace mts::viz
