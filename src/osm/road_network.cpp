#include "osm/road_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/error.hpp"
#include "core/units.hpp"
#include "graph/connectivity.hpp"

namespace mts::osm {

namespace {

/// Snap position tolerance: within this fraction of either segment end a
/// POI attaches to the existing endpoint instead of splitting the segment.
constexpr double kEndpointSnapFraction = 0.05;

/// Mutable construction state: plain vectors that are cheap to edit (edge
/// splits, SCC filtering) before the final immutable DiGraph is built.
struct BuilderNode {
  XY xy;
  OsmNodeId osm_id = OsmNodeId::invalid();
  NodeKind kind = NodeKind::Intersection;
};

struct BuilderEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  RoadSegment segment;
};

struct Builder {
  LocalProjection projection;
  std::vector<BuilderNode> nodes;
  std::vector<BuilderEdge> edges;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::int32_t> name_index;

  std::int32_t intern_name(const std::string& name) {
    const auto [it, inserted] = name_index.emplace(name, static_cast<std::int32_t>(names.size()));
    if (inserted) names.push_back(name);
    return it->second;
  }
};

/// Attributes shared by every segment of one way, before per-direction
/// adjustment.
struct WayAttributes {
  HighwayClass highway = HighwayClass::Unclassified;
  double speed_mps = 1.0;
  int lanes_per_dir = 1;
  double width_per_dir = kLaneWidthMeters;
  OnewayDirection oneway = OnewayDirection::No;
  std::int32_t name_index = -1;
};

std::optional<WayAttributes> parse_way_attributes(const OsmWay& way, Builder& builder) {
  const std::string* highway_tag = way.tag("highway");
  if (highway_tag == nullptr) return std::nullopt;
  const auto highway = parse_highway(*highway_tag);
  if (!highway) return std::nullopt;

  WayAttributes attrs;
  attrs.highway = *highway;
  const HighwayDefaults defaults = highway_defaults(*highway);
  attrs.speed_mps = defaults.speed_mps;
  if (const std::string* raw = way.tag("maxspeed")) {
    if (const auto parsed = parse_maxspeed(*raw)) attrs.speed_mps = *parsed;
  }
  // OSM convention: roundabouts are one-way in the digitized direction
  // unless tagged otherwise.
  if (const std::string* junction = way.tag("junction")) {
    if (*junction == "roundabout" || *junction == "circular") {
      attrs.oneway = OnewayDirection::Forward;
    }
  }
  if (const std::string* raw = way.tag("oneway")) attrs.oneway = parse_oneway(*raw);

  // OSM `lanes`/`width` count both directions on two-way streets; the
  // attack cost of blocking one direction of travel uses its share.
  int total_lanes = defaults.lanes_per_dir * (attrs.oneway == OnewayDirection::No ? 2 : 1);
  if (const std::string* raw = way.tag("lanes")) {
    if (const auto parsed = parse_lanes(*raw)) total_lanes = *parsed;
  }
  double total_width = static_cast<double>(total_lanes) * kLaneWidthMeters;
  if (const std::string* raw = way.tag("width")) {
    if (const auto parsed = parse_width(*raw)) total_width = *parsed;
  }
  if (attrs.oneway == OnewayDirection::No) {
    attrs.lanes_per_dir = std::max(1, total_lanes - total_lanes / 2);  // ceil, no overflow
    attrs.width_per_dir = std::max(kLaneWidthMeters * 0.5, total_width / 2.0);
  } else {
    attrs.lanes_per_dir = std::max(1, total_lanes);
    attrs.width_per_dir = std::max(kLaneWidthMeters * 0.5, total_width);
  }
  if (const std::string* raw = way.tag("name")) attrs.name_index = builder.intern_name(*raw);
  return attrs;
}

/// Keeps only nodes/edges of the largest SCC; compacts indices.
void restrict_to_largest_scc(Builder& builder) {
  DiGraph probe;
  for (const auto& node : builder.nodes) probe.add_node(node.xy.x, node.xy.y);
  for (const auto& edge : builder.edges) {
    probe.add_edge(NodeId(edge.from), NodeId(edge.to));
  }
  probe.finalize();
  const auto scc = strongly_connected_components(probe);
  if (scc.num_components <= 1) return;
  const auto keep = scc.largest();

  std::vector<std::uint32_t> remap(builder.nodes.size(), ~0u);
  std::vector<BuilderNode> kept_nodes;
  for (std::size_t i = 0; i < builder.nodes.size(); ++i) {
    if (scc.component[i] == keep) {
      remap[i] = static_cast<std::uint32_t>(kept_nodes.size());
      kept_nodes.push_back(builder.nodes[i]);
    }
  }
  std::vector<BuilderEdge> kept_edges;
  kept_edges.reserve(builder.edges.size());
  for (const auto& edge : builder.edges) {
    if (remap[edge.from] != ~0u && remap[edge.to] != ~0u) {
      kept_edges.push_back({remap[edge.from], remap[edge.to], edge.segment});
    }
  }
  builder.nodes = std::move(kept_nodes);
  builder.edges = std::move(kept_edges);
}

/// Finds the builder edge index of the reverse twin (to -> from on the
/// same way), or -1.
std::ptrdiff_t find_twin(const Builder& builder, std::size_t edge_idx) {
  const auto& e = builder.edges[edge_idx];
  for (std::size_t j = 0; j < builder.edges.size(); ++j) {
    if (j == edge_idx) continue;
    const auto& other = builder.edges[j];
    if (other.from == e.to && other.to == e.from && other.segment.way == e.segment.way) {
      return static_cast<std::ptrdiff_t>(j);
    }
  }
  return -1;
}

/// Splits builder edge `edge_idx` at parameter `t`, returning the new
/// middle node index.  The twin (if any) is split at the mirrored point.
std::uint32_t split_edge(Builder& builder, std::size_t edge_idx, double t, XY split_xy) {
  const auto mid = static_cast<std::uint32_t>(builder.nodes.size());
  builder.nodes.push_back({split_xy, OsmNodeId::invalid(), NodeKind::SplitPoint});

  const auto twin_idx = find_twin(builder, edge_idx);

  auto do_split = [&](std::size_t idx, double fraction) {
    BuilderEdge& edge = builder.edges[idx];
    const double total = edge.segment.length_m;
    BuilderEdge second = edge;            // mid -> old head
    second.from = mid;
    second.segment.length_m = total * (1.0 - fraction);
    edge.to = mid;                        // old tail -> mid (reuse slot)
    edge.segment.length_m = total * fraction;
    builder.edges.push_back(second);
  };

  do_split(edge_idx, t);
  if (twin_idx >= 0) do_split(static_cast<std::size_t>(twin_idx), 1.0 - t);
  return mid;
}

}  // namespace

RoadNetwork RoadNetwork::build(const OsmData& data, const BuildOptions& options) {
  // ---- Projection center.
  LatLon center;
  if (options.center) {
    center = *options.center;
  } else {
    require(!data.nodes.empty(), "RoadNetwork::build: no nodes");
    for (const auto& node : data.nodes) {
      center.lat += node.lat;
      center.lon += node.lon;
    }
    center.lat /= static_cast<double>(data.nodes.size());
    center.lon /= static_cast<double>(data.nodes.size());
  }

  Builder builder;
  builder.projection = LocalProjection(center.lat, center.lon);

  // ---- Create builder nodes for every OSM node referenced by a road way.
  const auto index = data.node_index();
  std::unordered_map<std::int64_t, std::uint32_t> graph_node_of;  // osm id -> builder idx
  std::vector<std::uint8_t> on_road(data.nodes.size(), 0);

  auto builder_node_for = [&](OsmNodeId osm_id) -> std::uint32_t {
    const auto found = graph_node_of.find(osm_id.value());
    if (found != graph_node_of.end()) return found->second;
    const auto it = index.find(osm_id);
    if (it == index.end()) {
      throw InvalidInput("RoadNetwork::build: way references missing node " +
                         std::to_string(osm_id.value()));
    }
    const OsmNode& osm_node = data.nodes[it->second];
    const auto idx = static_cast<std::uint32_t>(builder.nodes.size());
    builder.nodes.push_back(
        {builder.projection.to_xy(osm_node.lat, osm_node.lon), osm_id, NodeKind::Intersection});
    graph_node_of.emplace(osm_id.value(), idx);
    on_road[it->second] = 1;
    return idx;
  };

  // ---- Ways -> directed edges.
  for (const auto& way : data.ways) {
    const auto attrs = parse_way_attributes(way, builder);
    if (!attrs || way.node_refs.size() < 2) continue;

    for (std::size_t i = 0; i + 1 < way.node_refs.size(); ++i) {
      const OsmNodeId a_id = way.node_refs[i];
      const OsmNodeId b_id = way.node_refs[i + 1];
      const auto a_it = index.find(a_id);
      const auto b_it = index.find(b_id);
      if (a_it == index.end() || b_it == index.end()) {
        throw InvalidInput("RoadNetwork::build: way " + std::to_string(way.id.value()) +
                           " references a missing node");
      }
      const std::uint32_t a = builder_node_for(a_id);
      const std::uint32_t b = builder_node_for(b_id);
      if (a == b) continue;  // degenerate zero-length piece

      RoadSegment seg;
      seg.length_m = haversine_m(data.nodes[a_it->second].lat, data.nodes[a_it->second].lon,
                                 data.nodes[b_it->second].lat, data.nodes[b_it->second].lon);
      if (seg.length_m <= 0.0) seg.length_m = 0.1;  // coincident points: keep routable
      seg.speed_mps = attrs->speed_mps;
      seg.lanes = attrs->lanes_per_dir;
      seg.width_m = attrs->width_per_dir;
      seg.highway = attrs->highway;
      seg.way = way.id;
      seg.name_index = attrs->name_index;

      if (attrs->oneway != OnewayDirection::Backward) builder.edges.push_back({a, b, seg});
      if (attrs->oneway != OnewayDirection::Forward) builder.edges.push_back({b, a, seg});
    }
  }
  if (builder.edges.empty()) {
    throw InvalidInput("RoadNetwork::build: no routable roads in input");
  }

  if (options.keep_largest_scc) restrict_to_largest_scc(builder);

  // ---- Collect POIs: tagged nodes that did not become road nodes.
  struct PendingPoi {
    Poi poi;
  };
  std::vector<PendingPoi> pending;
  for (std::size_t i = 0; i < data.nodes.size(); ++i) {
    const auto& node = data.nodes[i];
    const std::string* amenity = node.tag("amenity");
    if (amenity == nullptr || on_road[i]) continue;
    Poi poi;
    poi.amenity = *amenity;
    if (const std::string* name = node.tag("name")) poi.name = *name;
    poi.lat = node.lat;
    poi.lon = node.lon;
    poi.xy = builder.projection.to_xy(node.lat, node.lon);
    pending.push_back({std::move(poi)});
  }

  RoadNetwork network;
  network.projection_ = builder.projection;

  // ---- Snap POIs (sequentially: later POIs see earlier splits).
  if (options.snap_pois) {
    for (auto& [poi] : pending) {
      // Nearest non-artificial segment.
      double best_distance = std::numeric_limits<double>::infinity();
      std::size_t best_edge = builder.edges.size();
      SegmentProjection best_proj;
      for (std::size_t eidx = 0; eidx < builder.edges.size(); ++eidx) {
        const auto& edge = builder.edges[eidx];
        if (edge.segment.artificial) continue;
        const auto proj = project_point_to_segment(poi.xy, builder.nodes[edge.from].xy,
                                                   builder.nodes[edge.to].xy);
        if (proj.distance < best_distance) {
          best_distance = proj.distance;
          best_edge = eidx;
          best_proj = proj;
        }
      }
      require(best_edge < builder.edges.size(), "RoadNetwork::build: no snap target");

      std::uint32_t access;
      if (best_proj.t <= kEndpointSnapFraction) {
        access = builder.edges[best_edge].from;
      } else if (best_proj.t >= 1.0 - kEndpointSnapFraction) {
        access = builder.edges[best_edge].to;
      } else {
        access = split_edge(builder, best_edge, best_proj.t, best_proj.closest);
      }

      // POI node + artificial connector both ways (paper: artificial road
      // segment, attribute marked).
      const auto poi_idx = static_cast<std::uint32_t>(builder.nodes.size());
      builder.nodes.push_back({poi.xy, OsmNodeId::invalid(), NodeKind::Poi});
      RoadSegment connector;
      connector.length_m = std::max(1.0, best_distance);
      connector.speed_mps = highway_defaults(HighwayClass::Service).speed_mps;
      connector.lanes = 1;
      connector.width_m = kLaneWidthMeters;
      connector.highway = HighwayClass::Service;
      connector.artificial = true;
      builder.edges.push_back({poi_idx, access, connector});
      builder.edges.push_back({access, poi_idx, connector});

      poi.node = NodeId(poi_idx);
      poi.access_node = NodeId(access);
      network.pois_.push_back(poi);
    }
  } else {
    for (auto& [poi] : pending) network.pois_.push_back(poi);
  }

  // ---- Freeze into the immutable representation.
  for (const auto& node : builder.nodes) {
    network.graph_.add_node(node.xy.x, node.xy.y);
    network.node_kinds_.push_back(node.kind);
    network.node_osm_ids_.push_back(node.osm_id);
  }
  network.segments_.reserve(builder.edges.size());
  for (const auto& edge : builder.edges) {
    network.graph_.add_edge(NodeId(edge.from), NodeId(edge.to));
    network.segments_.push_back(edge.segment);
  }
  network.graph_.finalize();
  network.names_ = std::move(builder.names);
  return network;
}

const std::string& RoadNetwork::segment_name(EdgeId e) const {
  static const std::string kEmpty;
  const auto idx = segments_[e.value()].name_index;
  return idx < 0 ? kEmpty : names_[static_cast<std::size_t>(idx)];
}

std::vector<NodeId> RoadNetwork::intersection_nodes() const {
  std::vector<NodeId> out;
  for (NodeId n : graph_.nodes()) {
    if (node_kinds_[n.value()] == NodeKind::Intersection) out.push_back(n);
  }
  return out;
}

std::vector<double> RoadNetwork::edge_lengths() const {
  std::vector<double> out;
  out.reserve(segments_.size());
  for (const auto& seg : segments_) out.push_back(seg.length_m);
  return out;
}

std::vector<double> RoadNetwork::edge_times() const {
  std::vector<double> out;
  out.reserve(segments_.size());
  for (const auto& seg : segments_) out.push_back(seg.travel_time_s());
  return out;
}

}  // namespace mts::osm
