// The paper's headline scenario: an attacker reroutes traffic headed for
// a hospital.  Compares all four algorithms on the same scenarios and
// prints a mini Table II-style grid.
//
//   $ ./hospital_ambush [city]         city in {boston, sf, chicago, la}
#include <cstring>
#include <iostream>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"

namespace {

mts::citygen::City parse_city(int argc, char** argv) {
  using mts::citygen::City;
  if (argc < 2) return City::Boston;
  const std::string arg = argv[1];
  if (arg == "sf" || arg == "san_francisco") return City::SanFrancisco;
  if (arg == "chicago") return City::Chicago;
  if (arg == "la" || arg == "los_angeles") return City::LosAngeles;
  return City::Boston;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mts;
  using attack::Algorithm;

  const auto city = parse_city(argc, argv);
  const auto network = citygen::generate_city(city, 0.5, 99);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Lanes);

  std::cout << "City: " << citygen::to_string(city) << " ("
            << network.graph().num_nodes() << " intersections)\nHospitals:\n";
  for (const auto& poi : network.pois()) std::cout << "  - " << poi.name << "\n";

  Rng rng(31);
  exp::ScenarioOptions options;
  options.path_rank = 50;
  const auto scenarios = exp::sample_scenarios(network, weights, 4, rng, options);
  if (scenarios.empty()) {
    std::cerr << "no scenarios sampled\n";
    return 1;
  }

  Table table("Hospital ambush — " + std::string(citygen::to_string(city)) +
                  " (TIME weight, LANES cost, p* = 50th path)",
              {"Algorithm", "Avg Runtime (s)", "ANER", "ACRE", "All Verified"});
  for (Algorithm algorithm : attack::kAllAlgorithms) {
    double runtime = 0.0;
    double edges = 0.0;
    double cost = 0.0;
    bool all_verified = true;
    for (const auto& scenario : scenarios) {
      const auto problem = exp::make_problem(network.graph(), weights, costs, scenario);
      const auto result = run_attack(algorithm, problem);
      all_verified &= result.status == attack::AttackStatus::Success &&
                      attack::verify_attack(problem, result.removed_edges).ok;
      runtime += result.seconds;
      edges += static_cast<double>(result.num_removed());
      cost += result.total_cost;
    }
    const auto n = static_cast<double>(scenarios.size());
    table.add_row({to_string(algorithm), format_fixed(runtime / n, 4),
                   format_fixed(edges / n, 2), format_fixed(cost / n, 2),
                   all_verified ? "yes" : "NO"});
  }
  table.render_text(std::cout);
  std::cout << "\nReading: LP/GreedyPathCover find cheaper cuts; GreedyEdge/GreedyEig are\n"
               "faster but pay more — the paper's §III-B trade-off.\n";
  return 0;
}
