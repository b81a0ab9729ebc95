// Figures 1-4 — one rendered attack per city, matching the paper's
// figure setups (hospital, weight type, cost type), written to figures/.
#include <iostream>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "core/env.hpp"
#include "exp/json_report.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"
#include "viz/geojson.hpp"
#include "viz/svg.hpp"

namespace {

struct FigureSpec {
  int number;
  mts::citygen::City city;
  const char* hospital;
  mts::attack::WeightType weight;
  mts::attack::CostType cost;
  const char* file;
};

}  // namespace

int main() {
  using namespace mts;
  const auto env = BenchEnv::from_environment();
  env.print_run_header("figures_maps");

  const FigureSpec figures[] = {
      {1, citygen::City::Boston, "Brigham and Women's Hospital", attack::WeightType::Length,
       attack::CostType::Width, "figures/fig1_boston.svg"},
      {2, citygen::City::SanFrancisco, "UCSF Medical Center at Mission Bay",
       attack::WeightType::Length, attack::CostType::Width, "figures/fig2_san_francisco.svg"},
      {3, citygen::City::Chicago, "Northwestern Memorial Hospital", attack::WeightType::Length,
       attack::CostType::Uniform, "figures/fig3_chicago.svg"},
      {4, citygen::City::LosAngeles, "LA Downtown Medical Center", attack::WeightType::Time,
       attack::CostType::Lanes, "figures/fig4_los_angeles.svg"},
  };

  int failures = 0;
  for (const auto& figure : figures) {
    const auto network = citygen::generate_city(figure.city, env.scale, env.seed);
    const auto weights = attack::make_weights(network, figure.weight);
    const auto costs = attack::make_costs(network, figure.cost);

    // Find the named hospital's POI index.
    std::size_t hospital_index = network.pois().size();
    for (std::size_t i = 0; i < network.pois().size(); ++i) {
      if (network.pois()[i].name == figure.hospital) hospital_index = i;
    }
    if (hospital_index == network.pois().size()) {
      std::cerr << "figure " << figure.number << ": hospital not found\n";
      ++failures;
      continue;
    }

    Rng rng(env.seed + static_cast<std::uint64_t>(figure.number));
    exp::ScenarioOptions options;
    options.path_rank = env.path_rank;
    const auto scenario = exp::sample_scenario(network, weights, hospital_index, rng, options);
    if (!scenario) {
      std::cerr << "figure " << figure.number << ": scenario sampling failed\n";
      ++failures;
      continue;
    }

    const auto problem = exp::make_problem(network.graph(), weights, costs, *scenario);

    const auto result = run_attack(attack::Algorithm::GreedyPathCover, problem);
    const auto verdict = attack::verify_attack(problem, result.removed_edges);
    if (result.status != attack::AttackStatus::Success || !verdict.ok) {
      std::cerr << "figure " << figure.number << ": attack failed (" << verdict.reason << ")\n";
      ++failures;
      continue;
    }

    viz::RenderOptions render;
    render.title = std::string("Fig ") + std::to_string(figure.number) + ": " +
                   citygen::to_string(figure.city) + " — " + figure.hospital + " (" +
                   to_string(figure.weight) + "/" + to_string(figure.cost) + ")";
    viz::save_attack_svg(figure.file, network, problem.p_star, result.removed_edges,
                         problem.source, problem.target, render);
    std::string geojson_file = figure.file;
    geojson_file.replace(geojson_file.find(".svg"), 4, ".geojson");
    viz::save_attack_geojson(geojson_file, network, problem.p_star, result.removed_edges,
                             problem.source, problem.target);
    std::cout << "figure " << figure.number << ": " << figure.file << " + .geojson  (removed "
              << result.num_removed() << " segments, cost " << format_fixed(result.total_cost, 2)
              << ", p* rank " << env.path_rank << ")\n";
  }
  exp::save_observability("figures/figures_maps");
  return failures;
}
