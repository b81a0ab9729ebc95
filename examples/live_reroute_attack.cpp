// The attack, end to end in a moving city: background traffic flows, a
// victim departs for the hospital using live-rerouting navigation, and at
// t=0 the attacker's pre-planned closures snap into place.  Watch the
// victim arrive via exactly the attacker-chosen route.
//
//   $ ./live_reroute_attack
#include <iostream>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"
#include "sim/traffic_sim.hpp"

int main() {
  using namespace mts;

  const auto network = citygen::generate_city(citygen::City::Chicago, 0.5, 2024);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto costs = attack::make_costs(network, attack::CostType::Uniform);
  const auto intersections = network.intersection_nodes();

  // Plan the attack offline (the paper: "in a matter of seconds").
  Rng rng(15);
  exp::ScenarioOptions options;
  options.path_rank = 40;
  const auto scenario = exp::sample_scenario(network, weights, 0, rng, options);
  if (!scenario) {
    std::cerr << "scenario sampling failed\n";
    return 1;
  }
  const auto problem = exp::make_problem(network.graph(), weights, costs, *scenario);
  const auto plan = run_attack(attack::Algorithm::GreedyPathCover, problem);
  if (plan.status != attack::AttackStatus::Success) {
    std::cerr << "attack planning failed\n";
    return 1;
  }
  std::cout << "Attack plan: block " << plan.num_removed() << " segments (computed in "
            << format_fixed(plan.seconds * 1000, 1) << " ms) to force the rank-40 route to "
            << scenario->hospital << ".\n\n";

  // Simulate with and without the closures, same background traffic.
  auto simulate = [&](bool attacked) {
    sim::TrafficSimulation simulation(network);
    simulation.add_vehicle({scenario->source, scenario->target, 60.0, /*victim=*/true});
    Rng traffic(99);
    for (int i = 0; i < 200; ++i) {
      simulation.add_vehicle({intersections[traffic.uniform_index(intersections.size())],
                              intersections[traffic.uniform_index(intersections.size())],
                              traffic.uniform(0.0, 300.0)});
    }
    if (attacked) {
      for (EdgeId e : plan.removed_edges) simulation.add_closure(e, 0.0);
    }
    return simulation.run();
  };

  const auto baseline = simulate(false);
  const auto attacked = simulate(true);
  const auto base_victim = baseline.victim_outcome();
  const auto hit_victim = attacked.victim_outcome();
  if (!base_victim || !base_victim->arrived || !hit_victim || !hit_victim->arrived) {
    std::cerr << "victim did not arrive\n";
    return 1;
  }

  Table table("Victim drive to " + scenario->hospital, {"", "Baseline", "Under Attack"});
  table.add_row({"Travel time (s)", format_fixed(base_victim->travel_time_s, 1),
                 format_fixed(hit_victim->travel_time_s, 1)});
  table.add_row({"Reroutes", std::to_string(base_victim->reroutes),
                 std::to_string(hit_victim->reroutes)});
  table.add_row({"Segments driven", std::to_string(base_victim->route_taken.size()),
                 std::to_string(hit_victim->route_taken.size())});
  table.render_text(std::cout);

  const bool forced = hit_victim->route_taken == scenario->p_star.edges;
  std::cout << "\nVictim drove exactly the attacker-chosen route p*: "
            << (forced ? "YES" : "no (congestion nudged it elsewhere)") << "\n"
            << "Delay factor: "
            << format_fixed(hit_victim->travel_time_s / base_victim->travel_time_s, 2)
            << "x — and the victim's navigation believes it took the optimal route.\n";
  return 0;
}
