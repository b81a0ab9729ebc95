// Quickstart: generate a small city, pick a source and a hospital, force
// the 50th-shortest route with GreedyPathCover, and print what to block.
//
//   $ ./quickstart
#include <iostream>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"

int main() {
  using namespace mts;

  // 1. A city street network (synthetic Boston; swap in osm::load_osm_xml
  //    + osm::RoadNetwork::build for a real extract).
  const auto network = citygen::generate_city(citygen::City::Boston, 0.5, /*seed=*/42);
  std::cout << "Boston-like network: " << network.graph().num_nodes() << " intersections, "
            << network.graph().num_edges() << " directed road segments\n";

  // 2. Victim model: minimizes free-flow travel TIME.  Attacker pays per
  //    blocked segment according to road WIDTH.
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Width);

  // 3. Scenario: random intersection -> hospital, p* = 50th shortest path.
  Rng rng(7);
  exp::ScenarioOptions options;
  options.path_rank = 50;
  const auto scenario = exp::sample_scenario(network, weights, /*hospital_index=*/0, rng, options);
  if (!scenario) {
    std::cerr << "could not sample a scenario\n";
    return 1;
  }
  std::cout << "Victim drives to " << scenario->hospital << "; fastest route "
            << format_fixed(scenario->shortest_length, 1) << " s, forced route (rank 50) "
            << format_fixed(scenario->p_star_length, 1) << " s (+"
            << format_fixed((scenario->p_star_length / scenario->shortest_length - 1) * 100, 1)
            << "%)\n";

  // 4. Attack: make p* the exclusive shortest path, seeded with the 49
  // faster paths Yen already found.
  const auto problem = exp::make_problem(network.graph(), weights, costs, *scenario);

  const auto result = run_attack(attack::Algorithm::GreedyPathCover, problem);
  if (result.status != attack::AttackStatus::Success) {
    std::cerr << "attack failed: " << to_string(result.status) << "\n";
    return 1;
  }

  // 5. The attacker's work order.
  std::cout << "\nBlock these " << result.num_removed() << " road segments (total cost "
            << format_fixed(result.total_cost, 2) << " car-widths, computed in "
            << format_fixed(result.seconds * 1000, 1) << " ms):\n";
  for (EdgeId e : result.removed_edges) {
    const auto& seg = network.segment(e);
    const auto name = network.segment_name(e);
    std::cout << "  - " << (name.empty() ? "(unnamed road)" : name) << "  ["
              << format_fixed(seg.length_m, 0) << " m, " << seg.lanes << " lane(s)]\n";
  }

  // 6. Independent verification.
  const auto verdict = attack::verify_attack(problem, result.removed_edges);
  std::cout << "\nVerified p* is now the exclusive shortest path: "
            << (verdict.ok ? "yes" : "NO — " + verdict.reason) << "\n";
  return verdict.ok ? 0 : 1;
}
