// End-to-end pipeline: synthesize a city, serialize to OSM XML on disk,
// re-ingest it, sample an attack scenario, run all four algorithms, verify
// each cut, and render the figure — the full life of one experiment.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "exp/scenario.hpp"
#include "osm/xml.hpp"
#include "test_util.hpp"
#include "viz/svg.hpp"

namespace mts {
namespace {

TEST(Pipeline, CityToXmlToAttackToSvg) {
  const auto spec = citygen::city_spec(citygen::City::Boston, 0.25);
  const auto osm_data = citygen::generate_city_osm(spec, 21);

  // Disk round trip, as a real OSM extract would arrive.
  const auto dir = test::unique_temp_dir();
  const auto osm_path = (dir / "boston.osm").string();
  osm::save_osm_xml(osm_data, osm_path);
  const auto reloaded = osm::load_osm_xml(osm_path);

  osm::BuildOptions build_options;
  build_options.center = osm::LatLon{spec.anchor_lat, spec.anchor_lon};
  const auto network = osm::RoadNetwork::build(reloaded, build_options);
  ASSERT_EQ(network.pois().size(), 4u);
  ASSERT_GT(network.graph().num_nodes(), 100u);

  // Scenario: random intersection -> hospital, p* = 25th shortest path.
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  Rng rng(5);
  exp::ScenarioOptions scenario_options;
  scenario_options.path_rank = 25;
  const auto scenario = exp::sample_scenario(network, weights, 0, rng, scenario_options);
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->prefix.size(), 24u);
  EXPECT_GE(scenario->p_star_length, scenario->shortest_length);

  const auto costs = attack::make_costs(network, attack::CostType::Width);
  const auto problem = exp::make_problem(network.graph(), weights, costs, *scenario);

  for (attack::Algorithm algorithm : attack::kAllAlgorithms) {
    const auto result = run_attack(algorithm, problem);
    ASSERT_EQ(result.status, attack::AttackStatus::Success) << to_string(algorithm);
    const auto verdict = attack::verify_attack(problem, result.removed_edges);
    EXPECT_TRUE(verdict.ok) << to_string(algorithm) << ": " << verdict.reason;
    EXPECT_GT(result.num_removed(), 0u) << to_string(algorithm);

    // Figure rendering (paper Figures 1-4 style).
    const auto svg_path = (dir / (std::string(to_string(algorithm)) + ".svg")).string();
    viz::save_attack_svg(svg_path, network, problem.p_star, result.removed_edges,
                         problem.source, problem.target);
    std::ifstream svg(svg_path);
    ASSERT_TRUE(svg.good());
    std::string content((std::istreambuf_iterator<char>(svg)), {});
    EXPECT_NE(content.find("<svg"), std::string::npos);
    EXPECT_NE(content.find("stroke=\"#d7261f\""), std::string::npos);  // removed, red
    EXPECT_NE(content.find("stroke=\"#1f5fd7\""), std::string::npos);  // p*, blue
  }
}

TEST(Pipeline, IntelligentAlgorithmsNoCostlierThanNaive) {
  // Structural claim from §III-B: PathCover solutions are never (much)
  // more expensive than GreedyEdge's on the same instance.
  const auto network = citygen::generate_city(citygen::City::Chicago, 0.25, 33);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Lanes);

  Rng rng(17);
  exp::ScenarioOptions options;
  options.path_rank = 30;
  int compared = 0;
  for (std::size_t hospital = 0; hospital < 4 && compared < 3; ++hospital) {
    const auto scenario = exp::sample_scenario(network, weights, hospital, rng, options);
    if (!scenario) continue;
    const auto problem = exp::make_problem(network.graph(), weights, costs, *scenario);

    const auto lp = run_attack(attack::Algorithm::LpPathCover, problem);
    const auto cover = run_attack(attack::Algorithm::GreedyPathCover, problem);
    const auto naive = run_attack(attack::Algorithm::GreedyEdge, problem);
    ASSERT_EQ(lp.status, attack::AttackStatus::Success);
    ASSERT_EQ(cover.status, attack::AttackStatus::Success);
    ASSERT_EQ(naive.status, attack::AttackStatus::Success);
    EXPECT_LE(lp.total_cost, naive.total_cost + 1e-9);
    EXPECT_LE(cover.total_cost, naive.total_cost * 1.25 + 1e-9);
    EXPECT_GE(lp.total_cost, lp.lp_lower_bound - 1e-6);
    ++compared;
  }
  EXPECT_GE(compared, 2);
}

}  // namespace
}  // namespace mts
