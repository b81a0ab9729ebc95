#include "osm/tags.hpp"

#include <gtest/gtest.h>

#include "core/units.hpp"

namespace mts::osm {
namespace {

TEST(ParseHighway, CoreClasses) {
  EXPECT_EQ(parse_highway("motorway"), HighwayClass::Motorway);
  EXPECT_EQ(parse_highway("primary"), HighwayClass::Primary);
  EXPECT_EQ(parse_highway("residential"), HighwayClass::Residential);
  EXPECT_EQ(parse_highway("service"), HighwayClass::Service);
}

TEST(ParseHighway, LinksFoldToBase) {
  EXPECT_EQ(parse_highway("motorway_link"), HighwayClass::Motorway);
  EXPECT_EQ(parse_highway("primary_link"), HighwayClass::Primary);
}

TEST(ParseHighway, NonDrivableReturnsNullopt) {
  EXPECT_FALSE(parse_highway("footway").has_value());
  EXPECT_FALSE(parse_highway("cycleway").has_value());
  EXPECT_FALSE(parse_highway("steps").has_value());
}

TEST(ParseHighway, UnknownFallsBackToUnclassified) {
  EXPECT_EQ(parse_highway("busway_of_the_future"), HighwayClass::Unclassified);
}

TEST(ParseHighway, CaseAndWhitespaceInsensitive) {
  EXPECT_EQ(parse_highway(" Residential "), HighwayClass::Residential);
}

TEST(ParseMaxspeed, MphAndKmh) {
  EXPECT_NEAR(*parse_maxspeed("25 mph"), mph_to_mps(25), 1e-9);
  EXPECT_NEAR(*parse_maxspeed("30mph"), mph_to_mps(30), 1e-9);
  EXPECT_NEAR(*parse_maxspeed("50"), kmh_to_mps(50), 1e-9);  // bare = km/h
  EXPECT_NEAR(*parse_maxspeed("50 km/h"), kmh_to_mps(50), 1e-9);
}

TEST(ParseMaxspeed, RejectsGarbage) {
  EXPECT_FALSE(parse_maxspeed("fast").has_value());
  EXPECT_FALSE(parse_maxspeed("-10").has_value());
  EXPECT_FALSE(parse_maxspeed("30 knots").has_value());
  EXPECT_FALSE(parse_maxspeed("nan").has_value());
  EXPECT_FALSE(parse_maxspeed("inf").has_value());
  EXPECT_FALSE(parse_maxspeed("0").has_value());
  EXPECT_FALSE(parse_maxspeed("0x1p6").has_value());
}

TEST(ParseLanes, ValidAndInvalid) {
  EXPECT_EQ(*parse_lanes("4"), 4);
  EXPECT_EQ(*parse_lanes(" 2 "), 2);
  EXPECT_FALSE(parse_lanes("2.5").has_value());
  EXPECT_FALSE(parse_lanes("0").has_value());
  EXPECT_FALSE(parse_lanes("two").has_value());
  EXPECT_FALSE(parse_lanes("1e10").has_value());
}

TEST(ParseWidth, MetersAndFeet) {
  EXPECT_NEAR(*parse_width("7.5"), 7.5, 1e-9);
  EXPECT_NEAR(*parse_width("7.5 m"), 7.5, 1e-9);
  EXPECT_NEAR(*parse_width("24'"), feet_to_meters(24), 1e-9);
  EXPECT_NEAR(*parse_width("24 ft"), feet_to_meters(24), 1e-9);
  EXPECT_FALSE(parse_width("-3").has_value());
  EXPECT_FALSE(parse_width("wide").has_value());
  EXPECT_FALSE(parse_width("inf").has_value());
  EXPECT_FALSE(parse_width("nan").has_value());
}

TEST(ParseOneway, AllSpellings) {
  EXPECT_EQ(parse_oneway("yes"), OnewayDirection::Forward);
  EXPECT_EQ(parse_oneway("true"), OnewayDirection::Forward);
  EXPECT_EQ(parse_oneway("1"), OnewayDirection::Forward);
  EXPECT_EQ(parse_oneway("-1"), OnewayDirection::Backward);
  EXPECT_EQ(parse_oneway("reverse"), OnewayDirection::Backward);
  EXPECT_EQ(parse_oneway("no"), OnewayDirection::No);
  EXPECT_EQ(parse_oneway("whatever"), OnewayDirection::No);
}

TEST(HighwayDefaults, MonotoneSpeedByImportance) {
  EXPECT_GT(highway_defaults(HighwayClass::Motorway).speed_mps,
            highway_defaults(HighwayClass::Primary).speed_mps);
  EXPECT_GT(highway_defaults(HighwayClass::Primary).speed_mps,
            highway_defaults(HighwayClass::Residential).speed_mps);
  EXPECT_GT(highway_defaults(HighwayClass::Residential).speed_mps,
            highway_defaults(HighwayClass::Service).speed_mps);
  EXPECT_GE(highway_defaults(HighwayClass::Motorway).lanes_per_dir, 3);
}

TEST(ToString, RoundTripsThroughParse) {
  for (HighwayClass hw : {HighwayClass::Motorway, HighwayClass::Trunk, HighwayClass::Primary,
                          HighwayClass::Secondary, HighwayClass::Tertiary,
                          HighwayClass::Residential, HighwayClass::Service,
                          HighwayClass::Unclassified}) {
    EXPECT_EQ(parse_highway(to_string(hw)), hw);
  }
}

}  // namespace
}  // namespace mts::osm
