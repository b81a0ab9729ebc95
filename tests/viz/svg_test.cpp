#include "viz/svg.hpp"

#include <gtest/gtest.h>

#include "attack/models.hpp"
#include "citygen/generate.hpp"

namespace mts::viz {
namespace {

// The figures' palette (paper Figures 1-4): grey roads, blue p* and source,
// red removed segments, yellow hospital.
constexpr const char* kRoadStroke = "stroke=\"#c9c9c9\"";
constexpr const char* kPStarStroke = "stroke=\"#1f5fd7\"";
constexpr const char* kRemovedStroke = "stroke=\"#d7261f\"";
constexpr const char* kTargetFill = "fill=\"#f2c414\"";

const osm::RoadNetwork& network() {
  static const osm::RoadNetwork net = citygen::generate_city(citygen::City::Boston, 0.15, 4);
  return net;
}

TEST(Svg, ContainsAllLayersAndEndpoints) {
  const auto& net = network();
  const auto weights = attack::make_weights(net, attack::WeightType::Time);
  const NodeId s = net.intersection_nodes().front();
  const NodeId t = net.pois().front().node;

  Path p_star;
  p_star.edges = {EdgeId(0), EdgeId(1)};
  const std::vector<EdgeId> removed = {EdgeId(2), EdgeId(3)};

  RenderOptions options;
  options.title = "Unit Test Figure";
  const std::string svg = render_attack_svg(net, p_star, removed, s, t, options);

  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find(kPStarStroke), std::string::npos);
  EXPECT_NE(svg.find(kRemovedStroke), std::string::npos);
  EXPECT_NE(svg.find(kRoadStroke), std::string::npos);
  EXPECT_NE(svg.find(kTargetFill), std::string::npos);
  EXPECT_NE(svg.find("Unit Test Figure"), std::string::npos);
  // Two endpoint circles.
  std::size_t circles = 0;
  for (std::size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, 2u);
  (void)weights;
}

TEST(Svg, LineCountMatchesEdges) {
  const auto& net = network();
  const NodeId s = net.intersection_nodes().front();
  const NodeId t = net.pois().front().node;
  const std::string svg = render_attack_svg(net, Path{}, {}, s, t);
  std::size_t lines = 0;
  for (std::size_t pos = svg.find("<line"); pos != std::string::npos;
       pos = svg.find("<line", pos + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, net.graph().num_edges());
}

TEST(Svg, RemovedLayerWinsOverPStar) {
  // An edge both on p* and removed renders as removed (drawn last).
  const auto& net = network();
  const NodeId s = net.intersection_nodes().front();
  const NodeId t = net.pois().front().node;
  Path p_star;
  p_star.edges = {EdgeId(5)};
  const std::string svg = render_attack_svg(net, p_star, {EdgeId(5)}, s, t);
  // The p* stroke color must not appear (its only edge was overridden).
  EXPECT_EQ(svg.find(std::string(kPStarStroke) + " stroke-width=\"3.5"), std::string::npos);
  EXPECT_NE(svg.find(std::string(kRemovedStroke) + " stroke-width=\"4"), std::string::npos);
}

TEST(Svg, CoordinatesStayInViewBox) {
  const auto& net = network();
  const NodeId s = net.intersection_nodes().front();
  const NodeId t = net.pois().front().node;
  const std::string svg = render_attack_svg(net, Path{}, {}, s, t);
  EXPECT_NE(svg.find("viewBox=\"0 0 1200 "), std::string::npos);
  // Parse every x1=" value and check bounds loosely.
  for (std::size_t pos = svg.find("x1=\""); pos != std::string::npos;
       pos = svg.find("x1=\"", pos + 1)) {
    const double x = std::stod(svg.substr(pos + 4));
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1200.0);
  }
}

}  // namespace
}  // namespace mts::viz
