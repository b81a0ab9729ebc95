// Property sweep: every (city, weight, cost, algorithm) combination must
// produce a verified attack on sampled scenarios — the paper's whole
// experimental grid, shrunk to unit-test size.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "exp/scenario.hpp"

namespace mts {
namespace {

using attack::Algorithm;
using attack::CostType;
using attack::WeightType;
using citygen::City;

using GridParam = std::tuple<City, WeightType, CostType, Algorithm>;

class AttackGrid : public ::testing::TestWithParam<GridParam> {
 protected:
  /// One network + scenario per (city, weight), shared across cost and
  /// algorithm variations to keep the sweep fast.
  struct Instance {
    osm::RoadNetwork network;
    std::vector<double> weights;
    std::optional<exp::Scenario> scenario;
  };

  static Instance& instance(City city, WeightType weight) {
    static std::map<std::pair<City, WeightType>, Instance> cache;
    const auto key = std::make_pair(city, weight);
    auto it = cache.find(key);
    if (it == cache.end()) {
      Instance inst{citygen::generate_city(city, 0.2, 1234), {}, std::nullopt};
      inst.weights = attack::make_weights(inst.network, weight);
      Rng rng(99);
      exp::ScenarioOptions options;
      options.path_rank = 20;
      inst.scenario = exp::sample_scenario(inst.network, inst.weights, 1, rng, options);
      it = cache.emplace(key, std::move(inst)).first;
    }
    return it->second;
  }
};

TEST_P(AttackGrid, VerifiedSuccess) {
  const auto [city, weight, cost_type, algorithm] = GetParam();
  auto& inst = instance(city, weight);
  ASSERT_TRUE(inst.scenario.has_value()) << "scenario sampling failed";

  const auto costs = attack::make_costs(inst.network, cost_type);
  const auto problem = exp::make_problem(inst.network.graph(), inst.weights, costs, *inst.scenario);

  const auto result = run_attack(algorithm, problem);
  ASSERT_EQ(result.status, attack::AttackStatus::Success);
  const auto verdict = attack::verify_attack(problem, result.removed_edges);
  EXPECT_TRUE(verdict.ok) << verdict.reason;
  EXPECT_GT(result.num_removed(), 0u);
  EXPECT_GT(result.total_cost, 0.0);
  // Sanity on the cost models: the cut can never cost less than one
  // cheapest-possible removal under that model.
  if (cost_type == CostType::Uniform) {
    EXPECT_DOUBLE_EQ(result.total_cost, static_cast<double>(result.num_removed()));
  } else {
    EXPECT_GE(result.total_cost, static_cast<double>(result.num_removed()) * 0.5);
  }
}

std::string grid_param_name(const ::testing::TestParamInfo<GridParam>& info) {
  const City city = std::get<0>(info.param);
  const WeightType weight = std::get<1>(info.param);
  const CostType cost = std::get<2>(info.param);
  const Algorithm algorithm = std::get<3>(info.param);
  std::string name = std::string(citygen::to_string(city)) + "_" + attack::to_string(weight) +
                     "_" + attack::to_string(cost) + "_" + to_string(algorithm);
  std::erase_if(name, [](char c) { return c == ' ' || c == '-'; });
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, AttackGrid,
    ::testing::Combine(::testing::ValuesIn(citygen::kAllCities),
                       ::testing::ValuesIn(attack::kAllWeightTypes),
                       ::testing::ValuesIn(attack::kAllCostTypes),
                       ::testing::ValuesIn(attack::kAllAlgorithms)),
    grid_param_name);

}  // namespace
}  // namespace mts
