// RoadNetwork: the routable city model built from OSM data.
//
// Wraps a DiGraph with per-edge road attributes (length, speed limit,
// lanes, width, highway class), points of interest (hospitals), and the
// projection used to embed the city in meters.  Matches the paper's §III-A
// pipeline: ways become directed edge pairs, off-road POIs are snapped to
// the closest point of the closest road segment by inserting an artificial
// node, joined by an artificial connector segment.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "osm/model.hpp"
#include "osm/projection.hpp"
#include "osm/tags.hpp"

namespace mts::osm {

using mts::DiGraph;
using mts::EdgeId;
using mts::NodeId;

/// What a graph node represents.
enum class NodeKind : std::uint8_t {
  Intersection,  // real road node from OSM
  SplitPoint,    // artificial node inserted while snapping a POI
  Poi,           // the point of interest itself
};

/// Attributes of one directed road segment (graph edge).
struct RoadSegment {
  double length_m = 0.0;
  double speed_mps = 1.0;
  double width_m = 3.0;     // width of this direction of travel
  int lanes = 1;            // lanes in this direction of travel
  HighwayClass highway = HighwayClass::Unclassified;
  bool artificial = false;  // POI connector (paper: marked in the geodataframe)
  OsmWayId way = OsmWayId::invalid();
  std::int32_t name_index = -1;

  /// Free-flow traversal time in seconds (the paper's TIME weight).
  [[nodiscard]] double travel_time_s() const { return length_m / speed_mps; }
};

/// A point of interest (destination candidate), e.g. a hospital.
struct Poi {
  std::string name;
  std::string amenity;
  double lat = 0.0;
  double lon = 0.0;
  XY xy;
  NodeId node = NodeId::invalid();         // graph node of the POI itself
  NodeId access_node = NodeId::invalid();  // on-road node it connects through
};

struct BuildOptions {
  /// Projection center; defaults to the mean node coordinate.
  std::optional<LatLon> center;
  /// Restrict the road graph to its largest strongly connected component
  /// (as OSMnx does) so any two kept intersections are mutually routable.
  bool keep_largest_scc = true;
  /// Snap POI nodes to the road network (off by default only in tests).
  /// A POI within 5% of a segment's length from either end attaches to that
  /// endpoint; elsewhere it splits the segment.
  bool snap_pois = true;
};

class RoadNetwork {
 public:
  /// Builds a routable network from OSM data.  Throws InvalidInput on
  /// dangling way references or a road-less input.
  static RoadNetwork build(const OsmData& data, const BuildOptions& options = {});

  [[nodiscard]] const DiGraph& graph() const { return graph_; }
  [[nodiscard]] const LocalProjection& projection() const { return projection_; }

  [[nodiscard]] const RoadSegment& segment(EdgeId e) const { return segments_[e.value()]; }
  [[nodiscard]] const std::vector<RoadSegment>& segments() const { return segments_; }
  /// Street name of a segment ("" when unnamed).
  [[nodiscard]] const std::string& segment_name(EdgeId e) const;

  [[nodiscard]] NodeKind node_kind(NodeId n) const { return node_kinds_[n.value()]; }
  [[nodiscard]] OsmNodeId node_osm_id(NodeId n) const { return node_osm_ids_[n.value()]; }

  [[nodiscard]] const std::vector<Poi>& pois() const { return pois_; }

  /// All real intersections (excludes POI and split-point nodes) — the
  /// sampling universe for attack sources.
  [[nodiscard]] std::vector<NodeId> intersection_nodes() const;

  /// Per-edge length in meters (the paper's LENGTH weight).
  [[nodiscard]] std::vector<double> edge_lengths() const;
  /// Per-edge free-flow travel time in seconds (the paper's TIME weight).
  [[nodiscard]] std::vector<double> edge_times() const;

 private:
  RoadNetwork() = default;

  DiGraph graph_;
  LocalProjection projection_;
  std::vector<RoadSegment> segments_;     // parallel to graph edges
  std::vector<NodeKind> node_kinds_;      // parallel to graph nodes
  std::vector<OsmNodeId> node_osm_ids_;   // parallel to graph nodes
  std::vector<Poi> pois_;
  std::vector<std::string> names_;
};

}  // namespace mts::osm
