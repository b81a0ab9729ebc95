// Mesoscopic traffic simulation with live rerouting.
//
// The paper's premise is that drivers follow navigation software that
// "dynamically accounts for live traffic updates" — i.e. they re-query
// shortest paths as conditions change, which is exactly what makes them
// predictable and attackable.  This simulator closes the loop: vehicles
// traverse the road network under BPR-style congestion, periodically
// reroute on live travel times, and road closures (the attack) take
// effect mid-simulation.  Benches use it to measure the *realized* victim
// delay an attack causes, not just the static path-length delta.
#pragma once

#include <optional>
#include <vector>

#include "graph/edge_filter.hpp"
#include "graph/path.hpp"
#include "osm/road_network.hpp"

namespace mts::sim {

using mts::EdgeFilter;
using mts::EdgeId;
using mts::NodeId;
using mts::Path;

struct VehicleSpec {
  NodeId source;
  NodeId destination;
  double depart_time_s = 0.0;
  bool victim = false;  // tracked separately in the result aggregates
};

struct SimOptions {
  double time_step_s = 1.0;
  /// How often a vehicle re-queries routing with live travel times
  /// (0 = never reroute after departure: a "static" driver).
  double reroute_interval_s = 60.0;
  double max_time_s = 4.0 * 3600.0;
  /// Consecutive ticks a vehicle may sit routeless before it is written off
  /// as terminally stranded (0 = keep retrying until max_time_s).  Without
  /// the cap a vehicle whose destination was cut off re-runs a full
  /// shortest-path query every tick for the rest of the simulation.
  int max_stranded_ticks = 600;
};

/// A scheduled road closure (the attacker blocking a segment).
struct Closure {
  EdgeId edge;
  double at_time_s = 0.0;
};

struct VehicleOutcome {
  bool arrived = false;
  /// Gave up after max_stranded_ticks consecutive routeless ticks (a
  /// terminal outcome; the vehicle stops consuming simulation work).
  bool terminally_stranded = false;
  double depart_time_s = 0.0;
  double arrival_time_s = 0.0;
  double travel_time_s = 0.0;  // only meaningful when arrived
  std::size_t reroutes = 0;
  std::vector<EdgeId> route_taken;
};

struct SimResult {
  std::vector<VehicleOutcome> outcomes;  // parallel to added vehicles
  double mean_travel_time_s = 0.0;       // over arrived vehicles
  std::size_t arrived = 0;
  std::size_t stranded = 0;              // never reached the destination
  double simulated_time_s = 0.0;

  /// Outcome of the first vehicle flagged `victim` (nullopt if none).
  [[nodiscard]] std::optional<VehicleOutcome> victim_outcome() const;
  std::ptrdiff_t victim_index = -1;
};

/// Deterministic single-run simulator.  Build, add vehicles and closures,
/// run() once.
class TrafficSimulation {
 public:
  TrafficSimulation(const osm::RoadNetwork& network, const SimOptions& options = {});

  /// Registers a vehicle; returns its index in the result outcomes.
  std::size_t add_vehicle(const VehicleSpec& spec);

  /// Schedules a road closure.  Vehicles already on the segment finish
  /// traversing it; nobody may enter it afterwards.
  void add_closure(EdgeId edge, double at_time_s);

  /// Runs to completion (all vehicles arrived/stranded or max_time_s).
  SimResult run();

 private:
  struct ActiveVehicle;

  double edge_travel_time(EdgeId e) const;      // live, congestion-adjusted
  std::optional<Path> route(NodeId from, NodeId to) const;

  const osm::RoadNetwork& network_;
  SimOptions options_;
  std::vector<VehicleSpec> vehicles_;
  std::vector<Closure> closures_;
  std::vector<double> free_flow_time_;   // per edge
  std::vector<double> capacity_;         // per edge, vehicles
  std::vector<int> occupancy_;           // per edge, live
  EdgeFilter closed_;
};

}  // namespace mts::sim
