// Defender's view: a city operator hardens a handful of road segments
// (bollards, patrols, monitored closures) to price the route-forcing
// attack out of reach.
//
//   $ ./defense_hardening
#include <cmath>
#include <iostream>

#include "attack/defense.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"

int main() {
  using namespace mts;

  const auto network = citygen::generate_city(citygen::City::Boston, 0.5, 4242);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Width);

  Rng rng(8);
  exp::ScenarioOptions options;
  options.path_rank = 40;
  const auto scenario = exp::sample_scenario(network, weights, 1, rng, options);
  if (!scenario) {
    std::cerr << "scenario sampling failed\n";
    return 1;
  }

  const auto problem = exp::make_problem(network.graph(), weights, costs, *scenario);

  std::cout << "Scenario: protect routes to " << scenario->hospital
            << " from route-forcing.\n\n";
  const auto defense = attack::harden_against_force_path_cut(problem, 10);

  Table table("Greedy hardening rounds (attacker: GreedyPathCover, WIDTH cost)",
              {"Round", "Protected Road", "Attack Cost Before", "Attack Cost After"});
  for (std::size_t i = 0; i < defense.rounds.size(); ++i) {
    const auto& round = defense.rounds[i];
    const auto& name = network.segment_name(round.protected_edge);
    table.add_row({std::to_string(i + 1), name.empty() ? "(unnamed road)" : name,
                   format_fixed(round.attack_cost_before, 2),
                   std::isfinite(round.attack_cost_after)
                       ? format_fixed(round.attack_cost_after, 2)
                       : std::string("attack blocked")});
  }
  table.render_text(std::cout);

  std::cout << "\nBaseline attack cost: " << format_fixed(defense.initial_attack_cost, 2)
            << " car-widths of blockage.\n";
  if (defense.attack_blocked) {
    std::cout << "After protecting " << defense.protected_edges.size()
              << " segments the chosen route can no longer be forced at ANY cost.\n";
  } else {
    std::cout << "After protecting " << defense.protected_edges.size()
              << " segments the attack costs " << format_fixed(defense.final_attack_cost, 2)
              << " (" << format_fixed(defense.final_attack_cost / defense.initial_attack_cost, 2)
              << "x the undefended cost).\n";
  }
  return 0;
}
