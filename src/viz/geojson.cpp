#include "viz/geojson.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/error.hpp"
#include "core/json.hpp"

namespace mts::viz {

namespace {

std::string coordinate(const osm::RoadNetwork& network, NodeId n) {
  const auto ll = network.projection().to_latlon(network.graph().x(n), network.graph().y(n));
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.7f,%.7f]", ll.lon, ll.lat);
  return buf;
}

}  // namespace

std::string render_attack_geojson(const osm::RoadNetwork& network, const Path& p_star,
                                  const std::vector<EdgeId>& removed_edges, NodeId source,
                                  NodeId target) {
  const auto& g = network.graph();
  std::vector<std::uint8_t> role(g.num_edges(), 0);  // 0 road, 1 p*, 2 removed
  for (EdgeId e : p_star.edges) role[e.value()] = 1;
  for (EdgeId e : removed_edges) role[e.value()] = 2;

  std::ostringstream out;
  out << "{\"type\":\"FeatureCollection\",\"features\":[";
  bool first = true;
  auto separator = [&] {
    if (!first) out << ',';
    first = false;
  };

  static const char* kRoleNames[] = {"road", "p_star", "removed"};
  for (EdgeId e : g.edges()) {
    separator();
    const auto& seg = network.segment(e);
    out << "{\"type\":\"Feature\",\"geometry\":{\"type\":\"LineString\",\"coordinates\":["
        << coordinate(network, g.edge_from(e)) << ',' << coordinate(network, g.edge_to(e))
        << "]},\"properties\":{\"role\":\"" << kRoleNames[role[e.value()]] << '"'
        << ",\"highway\":\"" << osm::to_string(seg.highway) << "\",\"lanes\":" << seg.lanes
        << ",\"length_m\":" << seg.length_m << ",\"artificial\":"
        << (seg.artificial ? "true" : "false");
    const auto& name = network.segment_name(e);
    if (!name.empty()) out << ",\"name\":\"" << json_escape(name) << '"';
    out << "}}";
  }

  const NodeId endpoints[] = {source, target};
  const char* endpoint_roles[] = {"source", "target"};
  for (int i = 0; i < 2; ++i) {
    separator();
    out << "{\"type\":\"Feature\",\"geometry\":{\"type\":\"Point\",\"coordinates\":"
        << coordinate(network, endpoints[i]) << "},\"properties\":{\"role\":\""
        << endpoint_roles[i] << "\"}}";
  }
  out << "]}";
  return out.str();
}

void save_attack_geojson(const std::string& path, const osm::RoadNetwork& network,
                         const Path& p_star, const std::vector<EdgeId>& removed_edges,
                         NodeId source, NodeId target) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  require(out.good(), "save_attack_geojson: cannot open " + path);
  out << render_attack_geojson(network, p_star, removed_edges, source, target);
}

}  // namespace mts::viz
