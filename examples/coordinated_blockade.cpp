// §II-A coordination scenario: several victim vehicles, one hospital, ONE
// pre-planned set of road closures that forces every victim onto its
// attacker-chosen route simultaneously — the "set S of compromised
// vehicles" story from the paper's introduction.
//
//   $ ./coordinated_blockade
#include <iostream>

#include "attack/models.hpp"
#include "attack/multi_victim.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"

int main() {
  using namespace mts;

  const auto network = citygen::generate_city(citygen::City::Chicago, 0.5, 808);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);

  // Three victims from different parts of the city, same hospital.
  Rng rng(44);
  exp::ScenarioOptions options;
  options.path_rank = 25;
  attack::MultiVictimProblem problem;
  problem.graph = &network.graph();
  problem.weights = weights;
  problem.costs = costs;
  std::string hospital;
  for (int attempt = 0; attempt < 20 && problem.victims.size() < 3; ++attempt) {
    const auto scenario = exp::sample_scenario(network, weights, 0, rng, options);
    if (!scenario) continue;
    bool duplicate = false;
    for (const auto& victim : problem.victims) duplicate |= victim.source == scenario->source;
    if (duplicate) continue;
    hospital = scenario->hospital;
    problem.victims.push_back(
        {scenario->source, scenario->target, scenario->p_star, scenario->prefix});
  }
  if (problem.victims.size() < 3) {
    std::cerr << "could not sample three victims\n";
    return 1;
  }
  std::cout << "Three victims heading to " << hospital
            << ", each to be forced onto its 25th-best route with one closure set.\n\n";

  const auto result = run_multi_victim_attack(problem);
  if (result.status != attack::AttackStatus::Success) {
    std::cout << "coordination outcome: " << to_string(result.status)
              << " (victim routes can genuinely conflict — one victim's chosen route may\n"
                 "be another's faster alternative, and chosen routes are unblockable)\n";
    return 0;
  }

  Table table("Shared closure set (" + std::to_string(result.removed_edges.size()) +
                  " segments, cost " + format_fixed(result.total_cost, 0) + ")",
              {"Victim", "Forced Route Length (s)", "Verified Exclusive"});
  for (std::size_t i = 0; i < problem.victims.size(); ++i) {
    const auto sub = problem.victim_problem(i);
    const auto verdict = attack::verify_attack(sub, result.removed_edges);
    table.add_row({"#" + std::to_string(i + 1),
                   format_fixed(path_length(sub.p_star.edges, weights), 1),
                   verdict.ok ? "yes" : verdict.reason});
  }
  table.render_text(std::cout);

  std::cout << "\nBlocked segments:\n";
  for (EdgeId e : result.removed_edges) {
    const auto& name = network.segment_name(e);
    std::cout << "  - " << (name.empty() ? "(unnamed road)" : name) << "\n";
  }
  std::cout << "\nOne coordinated strike, " << result.oracle_calls
            << " oracle queries, " << format_fixed(result.seconds * 1000, 1)
            << " ms of planning.\n";
  return 0;
}
