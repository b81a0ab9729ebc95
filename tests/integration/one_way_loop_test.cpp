// A one-way block you can check by hand (OSRM's alternative_loop.feature):
//
//     a --h2------------h1-- b        four one-way ways a->b->d->c->a,
//     ^                      |        about 200 m x 200 m; hospital 2 sits
//     |                      v        a quarter of the way along ab and
//     c <------------------- d        hospital 1 three quarters of the way.
//
// Snapping splits ab forward only, so the only route from hospital 1 to
// hospital 2 runs the long way around the block: b, d, c, a.  With a
// single simple path there is no alternative to force, which pins the
// directed semantics the paper adds to PATHATTACK.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "graph/dijkstra.hpp"
#include "net/engine.hpp"
#include "net/protocol.hpp"
#include "net/snapshot.hpp"
#include "osm/projection.hpp"
#include "osm/road_network.hpp"

namespace mts {
namespace {

constexpr double kNorth = 42.3600;
constexpr double kSouth = 42.3582;  // ~200 m south
constexpr double kWest = -71.0600;
constexpr double kEast = -71.0576;  // ~200 m east

osm::OsmData one_way_loop() {
  osm::OsmData data;
  auto add_node = [&](std::int64_t id, double lat, double lon, const char* hospital) {
    osm::OsmNode node;
    node.id = OsmNodeId(id);
    node.lat = lat;
    node.lon = lon;
    if (hospital != nullptr) {
      node.tags["amenity"] = "hospital";
      node.tags["name"] = hospital;
    }
    data.nodes.push_back(std::move(node));
  };
  add_node(1, kNorth, kWest, nullptr);  // a
  add_node(2, kNorth, kEast, nullptr);  // b
  add_node(3, kSouth, kWest, nullptr);  // c
  add_node(4, kSouth, kEast, nullptr);  // d
  // On the line ab itself, so each connector is the 1 m minimum.
  add_node(11, kNorth, kWest + 0.75 * (kEast - kWest), "Hospital 1");
  add_node(12, kNorth, kWest + 0.25 * (kEast - kWest), "Hospital 2");

  std::int64_t way_id = 100;
  auto add_way = [&](std::int64_t from, std::int64_t to) {
    osm::OsmWay way;
    way.id = OsmWayId(way_id++);
    way.node_refs = {OsmNodeId(from), OsmNodeId(to)};
    way.tags["highway"] = "residential";
    way.tags["oneway"] = "yes";
    data.ways.push_back(std::move(way));
  };
  add_way(1, 2);  // ab
  add_way(2, 4);  // bd
  add_way(4, 3);  // dc
  add_way(3, 1);  // ca
  return data;
}

const osm::Poi& hospital(const osm::RoadNetwork& network, const std::string& name) {
  for (const auto& poi : network.pois()) {
    if (poi.name == name) return poi;
  }
  throw std::runtime_error("no POI named " + name);
}

TEST(OneWayLoop, SnappingSplitsTheOneWayForwardOnly) {
  const auto network = osm::RoadNetwork::build(one_way_loop());
  const auto& g = network.graph();
  // a, b, c, d, two split points, two hospitals.
  EXPECT_EQ(g.num_nodes(), 8u);
  // ab in three forward pieces, bd, dc, ca, and a connector pair each.
  EXPECT_EQ(g.num_edges(), 10u);
  const auto& h1 = hospital(network, "Hospital 1");
  const auto& h2 = hospital(network, "Hospital 2");
  EXPECT_EQ(network.node_kind(h1.access_node), osm::NodeKind::SplitPoint);
  EXPECT_EQ(network.node_kind(h2.access_node), osm::NodeKind::SplitPoint);

  int roads = 0;
  for (EdgeId e : g.edges()) {
    if (network.segment(e).artificial) continue;
    ++roads;
    for (EdgeId back : g.out_edges(g.edge_to(e))) {
      EXPECT_NE(g.edge_to(back), g.edge_from(e)) << "road edge " << e.value() << " has a twin";
    }
  }
  EXPECT_EQ(roads, 6);
}

TEST(OneWayLoop, RouteGoesTheLongWayAround) {
  const net::Snapshot snapshot(osm::RoadNetwork::build(one_way_loop()));
  const auto& network = snapshot.network();
  const auto& g = network.graph();
  const NodeId from = hospital(network, "Hospital 1").node;
  const NodeId to = hospital(network, "Hospital 2").node;
  const auto lengths = network.edge_lengths();
  const auto path = shortest_path(g, lengths, from, to);
  ASSERT_TRUE(path.has_value());

  // h1 -> split -> b -> d -> c -> a -> split -> h2.
  std::vector<std::int64_t> corners;
  for (EdgeId e : path->edges) {
    const auto osm_id = network.node_osm_id(g.edge_to(e));
    if (osm_id.valid()) corners.push_back(osm_id.value());
  }
  EXPECT_EQ(corners, (std::vector<std::int64_t>{2, 4, 3, 1}));
  EXPECT_EQ(path->edges.size(), 7u);

  // bd, dc and ca in full; of ab, the quarter from h1 to b and the quarter
  // from a to h2; plus the two 1 m connectors.
  const double ab = osm::haversine_m(kNorth, kWest, kNorth, kEast);
  const double expected = osm::haversine_m(kNorth, kEast, kSouth, kEast) +
                          osm::haversine_m(kSouth, kEast, kSouth, kWest) +
                          osm::haversine_m(kSouth, kWest, kNorth, kWest) + 0.5 * ab + 2.0;
  EXPECT_NEAR(path->length, expected, 1e-6);

  // The daemon's CH answers the same route.
  net::QueryEngine engine(snapshot, WorkBudget{});
  const std::string endpoints = std::to_string(from.value()) + " " + std::to_string(to.value());
  const auto route = engine.handle(net::parse_request("route 1 " + endpoints + " length"));
  ASSERT_TRUE(route.ok) << route.error;
  EXPECT_EQ(route.field("found"), "1");
  EXPECT_EQ(route.field("hops"), "7");
  EXPECT_NEAR(std::stod(route.field("dist")), expected, 1e-5);
}

TEST(OneWayLoop, OneSimplePathLeavesNothingToForce) {
  const net::Snapshot snapshot(osm::RoadNetwork::build(one_way_loop()));
  const auto& network = snapshot.network();
  const std::string endpoints =
      std::to_string(hospital(network, "Hospital 1").node.value()) + " " +
      std::to_string(hospital(network, "Hospital 2").node.value());
  net::QueryEngine engine(snapshot, WorkBudget{});

  const auto kalt = engine.handle(net::parse_request("kalt 2 " + endpoints + " 3 length"));
  ASSERT_TRUE(kalt.ok) << kalt.error;
  EXPECT_EQ(kalt.field("paths"), "1");
  EXPECT_EQ(kalt.field("best"), kalt.field("worst"));

  const auto attack =
      engine.handle(net::parse_request("attack 3 " + endpoints + " 2 greedy-pathcover length"));
  ASSERT_TRUE(attack.ok) << attack.error;
  EXPECT_EQ(attack.field("status"), "rank-unavailable");
  EXPECT_EQ(attack.field("removed"), "0");
}

}  // namespace
}  // namespace mts
