#include "osm/road_network.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/units.hpp"
#include "graph/connectivity.hpp"

namespace mts::osm {
namespace {

/// 3-node east-west street at ~42.36N with ~100 m spacing, plus a hospital
/// POI ~60 m north of the middle segment.
OsmData small_city() {
  OsmData data;
  auto add_node = [&](std::int64_t id, double lat, double lon) {
    OsmNode n;
    n.id = OsmNodeId(id);
    n.lat = lat;
    n.lon = lon;
    data.nodes.push_back(std::move(n));
  };
  // ~0.0012 deg lon ~= 100 m at this latitude.
  add_node(1, 42.3600, -71.0600);
  add_node(2, 42.3600, -71.0588);
  add_node(3, 42.3600, -71.0576);
  // Hospital ~60 m north of the middle of segment 1-2.
  OsmNode hospital;
  hospital.id = OsmNodeId(50);
  hospital.lat = 42.36054;
  hospital.lon = -71.0594;
  hospital.tags["amenity"] = "hospital";
  hospital.tags["name"] = "Test General";
  data.nodes.push_back(std::move(hospital));

  OsmWay way;
  way.id = OsmWayId(100);
  way.node_refs = {OsmNodeId(1), OsmNodeId(2), OsmNodeId(3)};
  way.tags["highway"] = "residential";
  way.tags["maxspeed"] = "25 mph";
  way.tags["lanes"] = "2";
  way.tags["width"] = "8.0";
  way.tags["name"] = "Main St";
  data.ways.push_back(std::move(way));
  return data;
}

TEST(RoadNetwork, TwoWayStreetMakesEdgePairs) {
  auto data = small_city();
  data.nodes.pop_back();  // drop the hospital for the pure-topology check
  BuildOptions options;
  options.snap_pois = false;
  const auto network = RoadNetwork::build(data, options);
  EXPECT_EQ(network.graph().num_nodes(), 3u);
  EXPECT_EQ(network.graph().num_edges(), 4u);  // 2 segments x 2 directions
}

TEST(RoadNetwork, SegmentAttributesFromTags) {
  auto data = small_city();
  const auto network = RoadNetwork::build(data);
  bool checked = false;
  for (EdgeId e : network.graph().edges()) {
    const auto& seg = network.segment(e);
    if (seg.artificial) continue;
    EXPECT_NEAR(seg.speed_mps, mph_to_mps(25), 1e-9);
    EXPECT_EQ(seg.lanes, 1);                 // 2 total / 2 directions
    EXPECT_NEAR(seg.width_m, 4.0, 1e-9);     // 8.0 total / 2
    EXPECT_EQ(seg.highway, HighwayClass::Residential);
    EXPECT_EQ(network.segment_name(e), "Main St");
    checked = true;
  }
  EXPECT_TRUE(checked);
}

// A numeric tag the reader refuses (non-finite, zero, hex, or lanes beyond
// int) reads as if it were absent: the highway class's default.
TEST(RoadNetwork, UnreadableNumericTagsFallBackToHighwayDefaults) {
  auto untagged = small_city();
  for (const char* key : {"maxspeed", "lanes", "width"}) untagged.ways[0].tags.erase(key);
  const auto reference = RoadNetwork::build(untagged);
  const std::pair<const char*, const char*> bad_tags[] = {
      {"maxspeed", "nan"}, {"maxspeed", "inf"}, {"maxspeed", "0"}, {"maxspeed", "0x1p6"},
      {"width", "inf"},    {"width", "nan"},    {"lanes", "1e10"}};
  for (const auto& [key, value] : bad_tags) {
    auto data = untagged;
    data.ways[0].tags[key] = value;
    const auto network = RoadNetwork::build(data);
    ASSERT_EQ(network.graph().num_edges(), reference.graph().num_edges());
    for (EdgeId e : network.graph().edges()) {
      EXPECT_EQ(network.segment(e).speed_mps, reference.segment(e).speed_mps) << key << "=" << value;
      EXPECT_EQ(network.segment(e).lanes, reference.segment(e).lanes) << key << "=" << value;
      EXPECT_EQ(network.segment(e).width_m, reference.segment(e).width_m) << key << "=" << value;
    }
  }
}

TEST(RoadNetwork, SegmentLengthsMatchHaversine) {
  auto data = small_city();
  BuildOptions options;
  options.snap_pois = false;
  data.nodes.pop_back();
  const auto network = RoadNetwork::build(data, options);
  double total = 0.0;
  for (EdgeId e : network.graph().edges()) total += network.segment(e).length_m;
  const double expected =
      2.0 * (haversine_m(42.36, -71.06, 42.36, -71.0588) +
             haversine_m(42.36, -71.0588, 42.36, -71.0576));
  EXPECT_NEAR(total, expected, 0.01);
}

TEST(RoadNetwork, OnewayForwardOnly) {
  auto data = small_city();
  data.nodes.pop_back();
  data.ways[0].tags["oneway"] = "yes";
  BuildOptions options;
  options.snap_pois = false;
  options.keep_largest_scc = false;  // a one-way chain has no big SCC
  const auto network = RoadNetwork::build(data, options);
  EXPECT_EQ(network.graph().num_edges(), 2u);
  for (EdgeId e : network.graph().edges()) {
    EXPECT_LT(network.graph().edge_from(e).value(), network.graph().edge_to(e).value());
  }
}

TEST(RoadNetwork, OnewayReverse) {
  auto data = small_city();
  data.nodes.pop_back();
  data.ways[0].tags["oneway"] = "-1";
  BuildOptions options;
  options.snap_pois = false;
  options.keep_largest_scc = false;
  const auto network = RoadNetwork::build(data, options);
  EXPECT_EQ(network.graph().num_edges(), 2u);
  for (EdgeId e : network.graph().edges()) {
    EXPECT_GT(network.graph().edge_from(e).value(), network.graph().edge_to(e).value());
  }
}

TEST(RoadNetwork, PoiSnapInsertsArtificialNodeAndConnector) {
  const auto network = RoadNetwork::build(small_city());
  ASSERT_EQ(network.pois().size(), 1u);
  const auto& poi = network.pois()[0];
  EXPECT_EQ(poi.name, "Test General");
  ASSERT_TRUE(poi.node.valid());
  ASSERT_TRUE(poi.access_node.valid());
  EXPECT_EQ(network.node_kind(poi.node), NodeKind::Poi);

  // The middle of segment 1-2 is not near an endpoint, so a split point
  // must have been inserted: 3 original + 1 split + 1 poi nodes.
  EXPECT_EQ(network.node_kind(poi.access_node), NodeKind::SplitPoint);
  EXPECT_EQ(network.graph().num_nodes(), 5u);
  // Edges: 2 (split 1-2 both dirs -> 4) + 2 (2-3 both dirs) + 2 connectors.
  EXPECT_EQ(network.graph().num_edges(), 8u);

  // Connector edges are artificial and both directions exist.
  int artificial = 0;
  for (EdgeId e : network.graph().edges()) {
    if (network.segment(e).artificial) ++artificial;
  }
  EXPECT_EQ(artificial, 2);

  // The hospital is mutually reachable from the street.
  const auto scc = mts::strongly_connected_components(network.graph());
  EXPECT_EQ(scc.component[0], scc.component[poi.node.value()]);
}

TEST(RoadNetwork, SplitPreservesTotalLength) {
  const auto network = RoadNetwork::build(small_city());
  double road_total = 0.0;
  for (EdgeId e : network.graph().edges()) {
    if (!network.segment(e).artificial) road_total += network.segment(e).length_m;
  }
  const double expected =
      2.0 * (haversine_m(42.36, -71.06, 42.36, -71.0588) +
             haversine_m(42.36, -71.0588, 42.36, -71.0576));
  EXPECT_NEAR(road_total, expected, 0.05);
}

TEST(RoadNetwork, PoiNearEndpointReusesNode) {
  auto data = small_city();
  // Move the hospital right next to node 3 (the east end).
  data.nodes[3].lat = 42.36003;
  data.nodes[3].lon = -71.05761;
  const auto network = RoadNetwork::build(data);
  const auto& poi = network.pois()[0];
  EXPECT_EQ(network.node_kind(poi.access_node), NodeKind::Intersection);
  EXPECT_EQ(network.graph().num_nodes(), 4u);  // no split point
}

TEST(RoadNetwork, IntersectionNodesExcludePoiAndSplit) {
  const auto network = RoadNetwork::build(small_city());
  const auto intersections = network.intersection_nodes();
  EXPECT_EQ(intersections.size(), 3u);
  for (NodeId n : intersections) {
    EXPECT_EQ(network.node_kind(n), NodeKind::Intersection);
  }
}

TEST(RoadNetwork, RoundaboutImpliesOneway) {
  auto data = small_city();
  data.nodes.pop_back();
  data.ways[0].tags["junction"] = "roundabout";
  BuildOptions options;
  options.snap_pois = false;
  options.keep_largest_scc = false;
  const auto network = RoadNetwork::build(data, options);
  EXPECT_EQ(network.graph().num_edges(), 2u);  // forward direction only
  // An explicit oneway tag still wins.
  data.ways[0].tags["oneway"] = "no";
  const auto two_way = RoadNetwork::build(data, options);
  EXPECT_EQ(two_way.graph().num_edges(), 4u);
}

TEST(RoadNetwork, NonRoadWaysIgnored) {
  auto data = small_city();
  OsmWay footway;
  footway.id = OsmWayId(200);
  footway.node_refs = {OsmNodeId(1), OsmNodeId(3)};
  footway.tags["highway"] = "footway";
  data.ways.push_back(std::move(footway));
  const auto network = RoadNetwork::build(data);
  // Same as without the footway.
  EXPECT_EQ(network.graph().num_edges(), 8u);
}

TEST(RoadNetwork, DanglingNodeRefThrows) {
  auto data = small_city();
  data.ways[0].node_refs.push_back(OsmNodeId(999));
  EXPECT_THROW(RoadNetwork::build(data), InvalidInput);
}

TEST(RoadNetwork, NoRoadsThrows) {
  OsmData data;
  OsmNode n;
  n.id = OsmNodeId(1);
  data.nodes.push_back(n);
  EXPECT_THROW(RoadNetwork::build(data), InvalidInput);
}

TEST(RoadNetwork, KeepLargestSccDropsIsland) {
  auto data = small_city();
  data.nodes.pop_back();  // no hospital
  // Add a disconnected 2-node island street far away.
  auto add_node = [&](std::int64_t id, double lat, double lon) {
    OsmNode n;
    n.id = OsmNodeId(id);
    n.lat = lat;
    n.lon = lon;
    data.nodes.push_back(std::move(n));
  };
  add_node(10, 42.40, -71.00);
  add_node(11, 42.40, -71.001);
  OsmWay island;
  island.id = OsmWayId(300);
  island.node_refs = {OsmNodeId(10), OsmNodeId(11)};
  island.tags["highway"] = "residential";
  data.ways.push_back(std::move(island));

  BuildOptions options;
  options.snap_pois = false;
  const auto network = RoadNetwork::build(data, options);
  EXPECT_EQ(network.graph().num_nodes(), 3u);  // island dropped

  options.keep_largest_scc = false;
  const auto full = RoadNetwork::build(data, options);
  EXPECT_EQ(full.graph().num_nodes(), 5u);
}

TEST(RoadNetwork, WeightVectorsMatchSegments) {
  const auto network = RoadNetwork::build(small_city());
  const auto lengths = network.edge_lengths();
  const auto times = network.edge_times();
  ASSERT_EQ(lengths.size(), network.graph().num_edges());
  ASSERT_EQ(times.size(), network.graph().num_edges());
  for (EdgeId e : network.graph().edges()) {
    EXPECT_DOUBLE_EQ(lengths[e.value()], network.segment(e).length_m);
    EXPECT_NEAR(times[e.value()],
                network.segment(e).length_m / network.segment(e).speed_mps, 1e-12);
    EXPECT_GT(times[e.value()], 0.0);
  }
}

}  // namespace
}  // namespace mts::osm
