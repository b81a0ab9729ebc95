#include "viz/geojson.hpp"

#include <gtest/gtest.h>

#include "citygen/generate.hpp"

namespace mts::viz {
namespace {

const osm::RoadNetwork& network() {
  static const osm::RoadNetwork net =
      citygen::generate_city(citygen::City::Chicago, 0.15, 6);
  return net;
}

/// Structural sanity: braces and brackets balance (not a full parser, but
/// catches every malformed-emission bug we have had).
void expect_balanced(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{') ++braces;
    else if (ch == '}') --braces;
    else if (ch == '[') ++brackets;
    else if (ch == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(GeoJson, ContainsRolesAndBalances) {
  const auto& net = network();
  const NodeId s = net.intersection_nodes().front();
  const NodeId t = net.pois().front().node;
  Path p_star;
  p_star.edges = {EdgeId(0)};
  const std::string json = render_attack_geojson(net, p_star, {EdgeId(1)}, s, t);
  expect_balanced(json);
  EXPECT_NE(json.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"p_star\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"removed\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"source\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"target\""), std::string::npos);
  EXPECT_NE(json.find("\"highway\":"), std::string::npos);
}

TEST(GeoJson, CoordinatesAreNearTheCityAnchor) {
  const auto& net = network();
  const NodeId s = net.intersection_nodes().front();
  const NodeId t = net.pois().front().node;
  const std::string json = render_attack_geojson(net, Path{}, {}, s, t);
  // Chicago anchor ~(-87.63, 41.88); every coordinate should be close.
  const auto pos = json.find("[-87.");
  EXPECT_NE(pos, std::string::npos);
  EXPECT_NE(json.find(",41.8"), std::string::npos);
}

}  // namespace
}  // namespace mts::viz
