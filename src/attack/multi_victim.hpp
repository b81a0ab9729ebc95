// Coordinated multi-victim route forcing (paper §II-A: "coerce multiple
// drivers to take a chosen suboptimal alternative route, make all drivers
// traveling between common locations take much slower routes").
//
// One shared set of road closures must simultaneously make every victim's
// chosen path p*_i the exclusive shortest path for its (s_i, d_i) pair.
// Closures may never touch ANY victim's chosen path, so the instances
// genuinely interact: a cut that helps victim A can be forbidden because
// it lies on victim B's route.  Solved by GreedyPathCover's constraint
// generation (attack/path_cover.hpp) with one oracle per victim, over the
// union of all victims' constraint paths.
#pragma once

#include "attack/algorithms.hpp"

namespace mts::attack {

struct Victim {
  NodeId source;
  NodeId target;
  Path p_star;
  std::vector<Path> seed_paths;  // known shorter paths for this pair
};

struct MultiVictimProblem {
  const DiGraph* graph = nullptr;
  std::span<const double> weights;
  std::span<const double> costs;
  std::vector<Victim> victims;
  double budget = std::numeric_limits<double>::infinity();
};

struct MultiVictimResult : AttackResult {
  /// Victims whose p* is certified exclusively shortest under the cut
  /// (all of them on Success).
  std::vector<std::uint8_t> victim_forced;
};

/// Finds one closure set forcing every victim at once.  Infeasible when
/// some victim has a faster-or-tied path consisting entirely of protected
/// edges (other victims' routes).  Throws PreconditionViolation when any
/// edge's cost is negative or not finite, as run_attack does.
MultiVictimResult run_multi_victim_attack(const MultiVictimProblem& problem);

}  // namespace mts::attack
