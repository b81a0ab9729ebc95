#include "sim/traffic_sim.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "graph/dijkstra.hpp"

namespace mts::sim {

/// Vehicles one lane-kilometer holds before congestion becomes severe.
constexpr double kCapacityPerLaneKm = 40.0;
/// BPR volume-delay parameters: time = free_time * (1 + a*(occ/cap)^b).
constexpr double kBprAlpha = 0.15;
constexpr double kBprBeta = 4.0;
/// Gridlock guard: the BPR multiplier is capped here (occupancy is not
/// flow, so an uncapped polynomial would produce unphysical crawls).
constexpr double kMaxCongestionFactor = 8.0;

std::optional<VehicleOutcome> SimResult::victim_outcome() const {
  if (victim_index < 0) return std::nullopt;
  return outcomes[static_cast<std::size_t>(victim_index)];
}

/// Per-vehicle progression state.
struct TrafficSimulation::ActiveVehicle {
  std::size_t index = 0;
  NodeId position;                  // node reached so far
  std::vector<EdgeId> plan;         // remaining route (front = next edge)
  std::size_t plan_cursor = 0;
  EdgeId current_edge = EdgeId::invalid();
  double remaining_on_edge_m = 0.0;
  double next_reroute_s = 0.0;
  int stranded_ticks = 0;  // consecutive ticks with no route
  bool departed = false;
  bool done = false;
};

TrafficSimulation::TrafficSimulation(const osm::RoadNetwork& network,
                                     const SimOptions& options)
    : network_(network),
      options_(options),
      free_flow_time_(network.edge_times()),
      closed_(network.graph().num_edges()) {
  require(options.time_step_s > 0.0, "sim: time step must be positive");
  require(options.max_time_s > 0.0, "sim: max time must be positive");
  capacity_.reserve(network.segments().size());
  for (const auto& seg : network.segments()) {
    const double lane_km = seg.lanes * seg.length_m / 1000.0;
    capacity_.push_back(std::max(1.0, lane_km * kCapacityPerLaneKm));
  }
  occupancy_.assign(network.graph().num_edges(), 0);
}

std::size_t TrafficSimulation::add_vehicle(const VehicleSpec& spec) {
  require(spec.source.value() < network_.graph().num_nodes() &&
              spec.destination.value() < network_.graph().num_nodes(),
          "sim: vehicle endpoint out of range");
  vehicles_.push_back(spec);
  return vehicles_.size() - 1;
}

void TrafficSimulation::add_closure(EdgeId edge, double at_time_s) {
  require(edge.value() < network_.graph().num_edges(), "sim: closure edge out of range");
  closures_.push_back({edge, at_time_s});
}

double TrafficSimulation::edge_travel_time(EdgeId e) const {
  const double load = occupancy_[e.value()] / capacity_[e.value()];
  const double factor = 1.0 + kBprAlpha * std::pow(load, kBprBeta);
  return free_flow_time_[e.value()] * std::min(kMaxCongestionFactor, factor);
}

std::optional<Path> TrafficSimulation::route(NodeId from, NodeId to) const {
  // Live weights: congestion-adjusted travel times, closures removed.
  std::vector<double> live(network_.graph().num_edges());
  for (EdgeId e : network_.graph().edges()) live[e.value()] = edge_travel_time(e);
  return shortest_path(network_.graph(), live, from, to, &closed_);
}

SimResult TrafficSimulation::run() {
  SimResult result;
  result.outcomes.resize(vehicles_.size());
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    result.outcomes[i].depart_time_s = vehicles_[i].depart_time_s;
    if (vehicles_[i].victim && result.victim_index < 0) {
      result.victim_index = static_cast<std::ptrdiff_t>(i);
    }
  }

  std::vector<ActiveVehicle> active(vehicles_.size());
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    active[i].index = i;
    active[i].position = vehicles_[i].source;
  }

  std::sort(closures_.begin(), closures_.end(),
            [](const Closure& a, const Closure& b) { return a.at_time_s < b.at_time_s; });
  std::size_t next_closure = 0;

  std::size_t remaining = vehicles_.size();
  double now = 0.0;
  const auto& g = network_.graph();

  while (remaining > 0 && now <= options_.max_time_s) {
    // Apply closures due by now.
    while (next_closure < closures_.size() && closures_[next_closure].at_time_s <= now) {
      closed_.remove(closures_[next_closure].edge);
      ++next_closure;
    }

    for (auto& vehicle : active) {
      if (vehicle.done) continue;
      const VehicleSpec& spec = vehicles_[vehicle.index];
      VehicleOutcome& outcome = result.outcomes[vehicle.index];

      if (!vehicle.departed) {
        if (spec.depart_time_s > now) continue;
        vehicle.departed = true;
        vehicle.next_reroute_s = now + options_.reroute_interval_s;
        if (auto path = route(spec.source, spec.destination)) {
          vehicle.plan = std::move(path->edges);
        }
      }

      // Instant arrival (source == destination) or stranded with no plan.
      if (vehicle.position == spec.destination) {
        outcome.arrived = true;
        outcome.arrival_time_s = now;
        outcome.travel_time_s = now - spec.depart_time_s;
        vehicle.done = true;
        --remaining;
        continue;
      }

      double step_budget = options_.time_step_s;
      while (step_budget > 0.0 && !vehicle.done) {
        if (!vehicle.current_edge.valid()) {
          // Periodic rerouting on live conditions (0 disables).
          if (options_.reroute_interval_s > 0.0 && now >= vehicle.next_reroute_s) {
            vehicle.next_reroute_s = now + options_.reroute_interval_s;
            if (auto path = route(vehicle.position, spec.destination)) {
              vehicle.plan = std::move(path->edges);
              vehicle.plan_cursor = 0;
              ++outcome.reroutes;
            }
          }
          // Enter the next planned edge if it is still open; otherwise
          // force an immediate replan.
          if (vehicle.plan_cursor >= vehicle.plan.size() ||
              closed_.is_removed(vehicle.plan[vehicle.plan_cursor])) {
            if (auto path = route(vehicle.position, spec.destination)) {
              vehicle.plan = std::move(path->edges);
              vehicle.plan_cursor = 0;
              ++outcome.reroutes;
            } else {
              // No route under the current closures: retry next tick, but
              // write the vehicle off once the cap is hit so an unreachable
              // destination stops burning a shortest-path query per tick.
              ++vehicle.stranded_ticks;
              if (options_.max_stranded_ticks > 0 &&
                  vehicle.stranded_ticks >= options_.max_stranded_ticks) {
                outcome.terminally_stranded = true;
                vehicle.done = true;
                --remaining;
              }
              break;
            }
            if (vehicle.plan.empty()) break;
          }
          vehicle.stranded_ticks = 0;
          vehicle.current_edge = vehicle.plan[vehicle.plan_cursor++];
          vehicle.remaining_on_edge_m = network_.segment(vehicle.current_edge).length_m;
          ++occupancy_[vehicle.current_edge.value()];
          outcome.route_taken.push_back(vehicle.current_edge);
        }

        // Advance along the current edge at the congestion-adjusted speed.
        const EdgeId e = vehicle.current_edge;
        const double speed =
            network_.segment(e).length_m / std::max(1e-9, edge_travel_time(e));
        const double advance = speed * step_budget;
        if (advance < vehicle.remaining_on_edge_m) {
          vehicle.remaining_on_edge_m -= advance;
          step_budget = 0.0;
        } else {
          step_budget -= vehicle.remaining_on_edge_m / speed;
          vehicle.position = g.edge_to(e);
          --occupancy_[e.value()];
          vehicle.current_edge = EdgeId::invalid();
          if (vehicle.position == spec.destination) {
            outcome.arrived = true;
            outcome.arrival_time_s = now + (options_.time_step_s - step_budget);
            outcome.travel_time_s = outcome.arrival_time_s - spec.depart_time_s;
            vehicle.done = true;
            --remaining;
          }
        }
      }
    }
    now += options_.time_step_s;
  }

  result.simulated_time_s = now;
  double total = 0.0;
  for (const auto& outcome : result.outcomes) {
    if (outcome.arrived) {
      ++result.arrived;
      total += outcome.travel_time_s;
    } else {
      ++result.stranded;
    }
  }
  if (result.arrived > 0) {
    result.mean_travel_time_s = total / static_cast<double>(result.arrived);
  }
  return result;
}

}  // namespace mts::sim
