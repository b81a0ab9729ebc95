#include "attack/models.hpp"

#include <gtest/gtest.h>

#include "attack/algorithms.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "core/units.hpp"

namespace mts::attack {
namespace {

const osm::RoadNetwork& test_network() {
  static const osm::RoadNetwork network =
      citygen::generate_city(citygen::City::Chicago, 0.2, 3);
  return network;
}

TEST(Models, LengthWeightsMatchSegments) {
  const auto& network = test_network();
  const auto weights = make_weights(network, WeightType::Length);
  ASSERT_EQ(weights.size(), network.graph().num_edges());
  for (EdgeId e : network.graph().edges()) {
    EXPECT_DOUBLE_EQ(weights[e.value()], network.segment(e).length_m);
  }
}

TEST(Models, TimeWeightsAreLengthOverSpeed) {
  const auto& network = test_network();
  const auto weights = make_weights(network, WeightType::Time);
  for (EdgeId e : network.graph().edges()) {
    const auto& seg = network.segment(e);
    EXPECT_NEAR(weights[e.value()], seg.length_m / seg.speed_mps, 1e-12);
  }
}

TEST(Models, UniformCostsAreOne) {
  const auto& network = test_network();
  const auto costs = make_costs(network, CostType::Uniform);
  for (double c : costs) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(Models, LanesCostsArePositiveIntegers) {
  const auto& network = test_network();
  const auto costs = make_costs(network, CostType::Lanes);
  for (EdgeId e : network.graph().edges()) {
    EXPECT_DOUBLE_EQ(costs[e.value()], network.segment(e).lanes);
    EXPECT_GE(costs[e.value()], 1.0);
  }
}

TEST(Models, WidthCostsUseCarWidthDivisor) {
  const auto& network = test_network();
  const auto costs = make_costs(network, CostType::Width);
  for (EdgeId e : network.graph().edges()) {
    EXPECT_NEAR(costs[e.value()], network.segment(e).width_m / kAverageCarWidthMeters, 1e-12);
    EXPECT_GT(costs[e.value()], 0.0);
  }
}

TEST(Models, CostOrderingUniformLanesWidthOnAverage) {
  // Paper §III-B: UNIFORM cheapest, then LANES, WIDTH most expensive,
  // because a lane is wider than a car.
  const auto& network = test_network();
  const auto uniform = make_costs(network, CostType::Uniform);
  const auto lanes = make_costs(network, CostType::Lanes);
  const auto width = make_costs(network, CostType::Width);
  double sum_u = 0.0;
  double sum_l = 0.0;
  double sum_w = 0.0;
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    sum_u += uniform[i];
    sum_l += lanes[i];
    sum_w += width[i];
  }
  EXPECT_LT(sum_u, sum_l);
  EXPECT_LT(sum_l, sum_w);
}

TEST(Models, ToStringNames) {
  EXPECT_STREQ(to_string(WeightType::Length), "LENGTH");
  EXPECT_STREQ(to_string(WeightType::Time), "TIME");
  EXPECT_STREQ(to_string(CostType::Uniform), "UNIFORM");
  EXPECT_STREQ(to_string(CostType::Lanes), "LANES");
  EXPECT_STREQ(to_string(CostType::Width), "WIDTH");
}

TEST(Models, CliAndWireTokensRoundTrip) {
  for (const WeightType type : kAllWeightTypes) EXPECT_EQ(parse_weight(weight_token(type)), type);
  for (const Algorithm algorithm : kAllAlgorithms) {
    EXPECT_EQ(parse_algorithm(algorithm_token(algorithm)), algorithm);
  }
  EXPECT_STREQ(weight_token(WeightType::Time), "time");
  EXPECT_STREQ(algorithm_token(Algorithm::LpPathCover), "lp-pathcover");
  // Display names are not tokens.
  EXPECT_THROW(parse_weight("TIME"), InvalidInput);
  EXPECT_THROW(parse_algorithm("LP-PathCover"), InvalidInput);
}

}  // namespace
}  // namespace mts::attack
