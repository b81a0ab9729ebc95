#include "sim/traffic_sim.hpp"

#include <gtest/gtest.h>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "exp/scenario.hpp"
#include "graph/dijkstra.hpp"

namespace mts::sim {
namespace {

const osm::RoadNetwork& test_network() {
  static const osm::RoadNetwork network =
      citygen::generate_city(citygen::City::Chicago, 0.2, 77);
  return network;
}

/// Source/destination pair with a decent-length route.
std::pair<NodeId, NodeId> pick_od(const osm::RoadNetwork& network) {
  return {network.intersection_nodes().front(), network.pois().front().node};
}

TEST(TrafficSim, FreeFlowMatchesStaticTravelTime) {
  const auto& network = test_network();
  const auto [s, t] = pick_od(network);
  const auto times = network.edge_times();
  const double expected = shortest_distance(network.graph(), times, s, t);
  ASSERT_LT(expected, kInfiniteDistance);

  TrafficSimulation sim(network);
  sim.add_vehicle({s, t, 0.0, true});
  const auto result = sim.run();
  const auto victim = result.victim_outcome();
  ASSERT_TRUE(victim.has_value());
  ASSERT_TRUE(victim->arrived);
  // One vehicle on an empty network: BPR congestion with a single car is
  // negligible; travel time ~= static shortest time (+<= one time step of
  // discretization per edge boundary is avoided by exact carry-over).
  EXPECT_NEAR(victim->travel_time_s, expected, expected * 0.02 + 2.0);
}

TEST(TrafficSim, DeterministicAcrossRuns) {
  const auto& network = test_network();
  const auto [s, t] = pick_od(network);
  auto run_once = [&] {
    TrafficSimulation sim(network);
    sim.add_vehicle({s, t, 0.0, true});
    for (int i = 0; i < 20; ++i) {
      const auto nodes = network.intersection_nodes();
      sim.add_vehicle({nodes[static_cast<std::size_t>(i * 7) % nodes.size()], t,
                       static_cast<double>(i)});
    }
    return sim.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].arrived, b.outcomes[i].arrived);
    EXPECT_DOUBLE_EQ(a.outcomes[i].travel_time_s, b.outcomes[i].travel_time_s);
    EXPECT_EQ(a.outcomes[i].route_taken, b.outcomes[i].route_taken);
  }
}

TEST(TrafficSim, CongestionSlowsTraffic) {
  const auto& network = test_network();
  const auto [s, t] = pick_od(network);

  TrafficSimulation solo(network);
  solo.add_vehicle({s, t, 0.0, true});
  const auto solo_result = solo.run();

  SimOptions options;
  options.reroute_interval_s = 0.0;  // same fixed route for a clean contrast
  TrafficSimulation crowded(network, options);
  crowded.add_vehicle({s, t, 0.0, true});
  for (int i = 0; i < 400; ++i) crowded.add_vehicle({s, t, 0.0});
  const auto crowded_result = crowded.run();

  const auto fast = solo_result.victim_outcome();
  const auto slow = crowded_result.victim_outcome();
  ASSERT_TRUE(fast && fast->arrived);
  ASSERT_TRUE(slow && slow->arrived);
  EXPECT_GT(slow->travel_time_s, fast->travel_time_s * 1.05);
}

TEST(TrafficSim, ClosureForcesRerouteAndDelay) {
  const auto& network = test_network();
  const auto [s, t] = pick_od(network);
  const auto times = network.edge_times();
  const auto baseline_path = shortest_path(network.graph(), times, s, t);
  ASSERT_TRUE(baseline_path.has_value());
  ASSERT_GE(baseline_path->num_edges(), 3u);

  // Close a mid-route edge just after departure.
  const EdgeId blocked = baseline_path->edges[baseline_path->num_edges() / 2];

  TrafficSimulation sim(network);
  sim.add_vehicle({s, t, 0.0, true});
  sim.add_closure(blocked, 1.0);
  const auto result = sim.run();
  const auto victim = result.victim_outcome();
  ASSERT_TRUE(victim && victim->arrived);
  // The realized route avoids the closed edge...
  for (EdgeId e : victim->route_taken) EXPECT_NE(e, blocked);
  // ...and is no faster than the unattacked drive.
  TrafficSimulation clean(network);
  clean.add_vehicle({s, t, 0.0, true});
  const auto clean_victim = clean.run().victim_outcome();
  ASSERT_TRUE(clean_victim && clean_victim->arrived);
  EXPECT_GE(victim->travel_time_s + 1e-9, clean_victim->travel_time_s);
}

TEST(TrafficSim, FullBlockadeStrandsVehicle) {
  const auto& network = test_network();
  const auto poi = network.pois().front();
  const auto [s, t] = pick_od(network);

  SimOptions options;
  options.max_time_s = 600.0;  // don't wait hours for the stranded car
  TrafficSimulation sim(network, options);
  sim.add_vehicle({s, poi.node, 0.0, true});
  // Close both connector directions: the hospital becomes unreachable.
  for (EdgeId e : network.graph().in_edges(poi.node)) sim.add_closure(e, 0.0);
  const auto result = sim.run();
  const auto victim = result.victim_outcome();
  ASSERT_TRUE(victim.has_value());
  EXPECT_FALSE(victim->arrived);
  EXPECT_EQ(result.stranded, 1u);
  (void)t;
}

TEST(TrafficSim, StrandedRetryCapWritesVehicleOffEarly) {
  // A vehicle whose destination is cut off stops re-querying routes after
  // max_stranded_ticks and becomes terminally stranded — the simulation
  // then ends instead of burning a shortest-path query per tick until
  // max_time_s.
  const auto& network = test_network();
  const auto poi = network.pois().front();
  const auto [s, t] = pick_od(network);
  (void)t;

  SimOptions options;
  options.max_time_s = 3600.0;
  options.max_stranded_ticks = 5;
  TrafficSimulation sim(network, options);
  sim.add_vehicle({s, poi.node, 0.0, true});
  for (EdgeId e : network.graph().in_edges(poi.node)) sim.add_closure(e, 0.0);
  const auto result = sim.run();
  const auto victim = result.victim_outcome();
  ASSERT_TRUE(victim.has_value());
  EXPECT_FALSE(victim->arrived);
  EXPECT_TRUE(victim->terminally_stranded);
  EXPECT_EQ(result.stranded, 1u);
  EXPECT_LT(result.simulated_time_s, options.max_time_s);
}

TEST(TrafficSim, ZeroStrandedCapKeepsRetryingUntilMaxTime) {
  const auto& network = test_network();
  const auto poi = network.pois().front();
  const auto [s, t] = pick_od(network);
  (void)t;

  SimOptions options;
  options.max_time_s = 60.0;  // short horizon: retry-forever is the point
  options.max_stranded_ticks = 0;
  TrafficSimulation sim(network, options);
  sim.add_vehicle({s, poi.node, 0.0, true});
  for (EdgeId e : network.graph().in_edges(poi.node)) sim.add_closure(e, 0.0);
  const auto result = sim.run();
  const auto victim = result.victim_outcome();
  ASSERT_TRUE(victim.has_value());
  EXPECT_FALSE(victim->arrived);
  EXPECT_FALSE(victim->terminally_stranded);
  EXPECT_EQ(result.stranded, 1u);
}

TEST(TrafficSim, ForcePathCutAttackRealizesForcedRoute) {
  // End-to-end: a Force Path Cut plan applied as live closures makes the
  // simulated, dynamically-rerouting victim drive exactly p*.
  const auto& network = test_network();
  const auto weights = network.edge_times();
  Rng rng(3);
  exp::ScenarioOptions scenario_options;
  scenario_options.path_rank = 15;
  const auto scenario = exp::sample_scenario(network, weights, 0, rng, scenario_options);
  ASSERT_TRUE(scenario.has_value());

  const auto costs = attack::make_costs(network, attack::CostType::Uniform);
  const auto problem = exp::make_problem(network.graph(), weights, costs, *scenario);
  const auto attack_result = run_attack(attack::Algorithm::GreedyPathCover, problem);
  ASSERT_EQ(attack_result.status, attack::AttackStatus::Success);

  SimOptions options;
  options.reroute_interval_s = 30.0;
  TrafficSimulation sim(network, options);
  sim.add_vehicle({scenario->source, scenario->target, 10.0, true});
  for (EdgeId e : attack_result.removed_edges) sim.add_closure(e, 0.0);
  const auto result = sim.run();
  const auto victim = result.victim_outcome();
  ASSERT_TRUE(victim && victim->arrived);
  EXPECT_EQ(victim->route_taken, scenario->p_star.edges);
  EXPECT_NEAR(victim->travel_time_s, scenario->p_star_length,
              scenario->p_star_length * 0.02 + 2.0);
}

TEST(TrafficSim, RejectsBadInput) {
  const auto& network = test_network();
  SimOptions options;
  options.time_step_s = 0.0;
  EXPECT_THROW(TrafficSimulation(network, options), PreconditionViolation);
  TrafficSimulation sim(network);
  EXPECT_THROW(sim.add_vehicle({NodeId(999999), NodeId(0), 0.0}), PreconditionViolation);
  EXPECT_THROW(sim.add_closure(EdgeId(999999), 0.0), PreconditionViolation);
}

TEST(TrafficSim, DelayedDeparture) {
  const auto& network = test_network();
  const auto [s, t] = pick_od(network);
  TrafficSimulation sim(network);
  sim.add_vehicle({s, t, 120.0, true});
  const auto result = sim.run();
  const auto victim = result.victim_outcome();
  ASSERT_TRUE(victim && victim->arrived);
  EXPECT_GE(victim->arrival_time_s, 120.0);
  EXPECT_DOUBLE_EQ(victim->depart_time_s, 120.0);
}

}  // namespace
}  // namespace mts::sim
