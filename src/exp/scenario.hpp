// Experiment scenario sampling (paper §III-A).
//
// "The source is a randomly selected intersection and the destination is a
// hospital. [...] The alternative path is set to the 100th shortest path
// between the source and destination."  A scenario bundles the sampled
// endpoints, the ranked Yen paths, and the chosen p*.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attack/problem.hpp"
#include "core/rng.hpp"
#include "graph/path.hpp"
#include "osm/road_network.hpp"

namespace mts::exp {

using mts::NodeId;
using mts::Path;
using mts::Rng;

struct Scenario {
  /// Original trial index this scenario was sampled as.  A quarantined
  /// trial drops out of the returned vector, so position is NOT a stable
  /// identity — anything keyed on the trial (per-cell RNG streams, the
  /// checkpoint journal's task ids) must use this index instead.
  std::size_t trial = 0;
  NodeId source;
  NodeId target;             // the hospital's POI node
  std::string hospital;
  Path p_star;               // the path_rank-th shortest path
  std::vector<Path> prefix;  // ranks 1 .. path_rank-1 (seed constraints)
  double shortest_length = 0.0;
  double p_star_length = 0.0;
  double yen_seconds = 0.0;  // time spent ranking paths (preprocessing)
};

/// Minimum straight-line source-hospital separation, in multiples of the
/// network's mean segment length (avoids trivial adjacent sources).
inline constexpr double kMinSeparationSegments = 8.0;

struct ScenarioOptions {
  int path_rank = 100;
};

/// The Force Path Cut problem a sampled scenario poses under one cost
/// model (paper §III-A): force its p*, with ranks 1 .. path_rank-1 as the
/// seed constraints.  Budget, protected edges and `ch` keep their defaults
/// for the caller to set.  The graph and spans must outlive the problem.
attack::ForcePathCutProblem make_problem(const DiGraph& graph, std::span<const double> weights,
                                         std::span<const double> costs, const Scenario& sampled);

/// Samples `count` scenarios, rotating through the network's hospitals
/// (paper: 10 sources x 4 hospitals).  Returns fewer if sampling fails
/// repeatedly.  Throws PreconditionViolation if the network has no POIs.
///
/// Trial i draws from its own Rng stream derived via SplitMix64 from
/// (seed, i), so trials are statistically independent and the expensive
/// per-trial Yen runs execute in parallel on the global thread pool
/// (MTS_THREADS) — with results identical at any thread count.
std::vector<Scenario> sample_scenarios(const osm::RoadNetwork& network,
                                       const std::vector<double>& weights, int count,
                                       std::uint64_t seed, const ScenarioOptions& options = {});

/// Compatibility overload: derives the stream base from one draw of `rng`.
std::vector<Scenario> sample_scenarios(const osm::RoadNetwork& network,
                                       const std::vector<double>& weights, int count, Rng& rng,
                                       const ScenarioOptions& options = {});

/// Samples one scenario targeting the given hospital POI index.
std::optional<Scenario> sample_scenario(const osm::RoadNetwork& network,
                                        const std::vector<double>& weights,
                                        std::size_t hospital_index, Rng& rng,
                                        const ScenarioOptions& options = {});

}  // namespace mts::exp
