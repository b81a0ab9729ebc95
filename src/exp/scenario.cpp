#include "exp/scenario.hpp"

#include <iostream>

#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "graph/metrics.hpp"
#include "graph/yen.hpp"
#include "obs/phase.hpp"

namespace mts::exp {

attack::ForcePathCutProblem make_problem(const DiGraph& graph, std::span<const double> weights,
                                         std::span<const double> costs, const Scenario& sampled) {
  attack::ForcePathCutProblem problem;
  problem.graph = &graph;
  problem.weights = weights;
  problem.costs = costs;
  problem.source = sampled.source;
  problem.target = sampled.target;
  problem.p_star = sampled.p_star;
  problem.seed_paths = sampled.prefix;
  return problem;
}

/// Resampling attempts per scenario before giving up (sources too close to
/// the hospital may not have `path_rank` distinct simple paths).
constexpr int kMaxAttempts = 40;

std::optional<Scenario> sample_scenario(const osm::RoadNetwork& network,
                                        const std::vector<double>& weights,
                                        std::size_t hospital_index, Rng& rng,
                                        const ScenarioOptions& options) {
  require(!network.pois().empty(), "sample_scenario: network has no POIs");
  require(hospital_index < network.pois().size(), "sample_scenario: hospital index out of range");
  require(options.path_rank >= 1, "sample_scenario: path_rank must be >= 1");

  const auto& g = network.graph();
  const auto& poi = network.pois()[hospital_index];
  require(poi.node.valid(), "sample_scenario: POI was not snapped to the network");

  const auto intersections = network.intersection_nodes();
  require(!intersections.empty(), "sample_scenario: no intersections");

  const double mean_segment = compute_network_metrics(g).mean_segment_length;
  const double min_separation = kMinSeparationSegments * mean_segment;

  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const NodeId source = intersections[rng.uniform_index(intersections.size())];
    if (source == poi.node || source == poi.access_node) continue;
    if (g.node_distance(source, poi.node) < min_separation) continue;

    Stopwatch stopwatch;
    auto ranked = yen_ksp(g, weights, source, poi.node,
                          static_cast<std::size_t>(options.path_rank));
    if (ranked.size() < static_cast<std::size_t>(options.path_rank)) continue;

    Scenario scenario;
    scenario.source = source;
    scenario.target = poi.node;
    scenario.hospital = poi.name;
    scenario.p_star = std::move(ranked.back());
    ranked.pop_back();
    scenario.prefix = std::move(ranked);
    scenario.shortest_length = scenario.prefix.empty() ? scenario.p_star.length
                                                       : scenario.prefix.front().length;
    scenario.p_star_length = scenario.p_star.length;
    scenario.yen_seconds = stopwatch.reported();
    return scenario;
  }
  return std::nullopt;
}

std::vector<Scenario> sample_scenarios(const osm::RoadNetwork& network,
                                       const std::vector<double>& weights, int count,
                                       std::uint64_t seed, const ScenarioOptions& options) {
  const std::size_t hospitals = network.pois().size();
  require(hospitals > 0, "sample_scenarios: network has no POIs");
  if (count <= 0) return {};

  // One slot per trial: tasks only touch their own index, and the ordered
  // harvest below makes the result independent of the thread count.
  std::vector<std::optional<Scenario>> slots(static_cast<std::size_t>(count));
  parallel_for(slots.size(), [&](std::size_t i) {
    // Root phase: attribution is the same whether this trial runs on a pool
    // worker or inline on the calling thread.
    obs::ScopedPhase phase("scenario", obs::PhaseKind::Root);
    Rng trial_rng(derive_seed(seed, {i}));
    // A poisoned trial (fault injection, Yen invariant breach) drops only
    // its own slot; the other trials keep their RNG streams and results.
    try {
      slots[i] = sample_scenario(network, weights, i % hospitals, trial_rng, options);
      if (slots[i]) slots[i]->trial = i;
    } catch (...) {
      std::cerr << "[quarantine] scenario trial " << i << ": " << current_exception_taxonomy()
                << '\n';
    }
  });

  std::vector<Scenario> scenarios;
  scenarios.reserve(slots.size());
  for (auto& slot : slots) {
    if (slot) scenarios.push_back(std::move(*slot));
  }
  return scenarios;
}

std::vector<Scenario> sample_scenarios(const osm::RoadNetwork& network,
                                       const std::vector<double>& weights, int count, Rng& rng,
                                       const ScenarioOptions& options) {
  return sample_scenarios(network, weights, count, rng(), options);
}

}  // namespace mts::exp
