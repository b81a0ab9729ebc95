// Weighted set-cover LP relaxation and rounding.
//
// PATHATTACK reduces Force Path Cut to weighted set cover: the universe is
// the set of discovered "constraint paths" (paths that would still beat
// p*), and each removable edge covers the paths containing it.  This module
// solves the LP relaxation exactly and rounds it to an integral cover,
// trying a deterministic descending-x sweep plus a few randomized samples
// and keeping the cheapest valid cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "lp/simplex.hpp"

namespace mts {

class Rng;

struct CoveringSolution {
  bool feasible = false;
  std::vector<std::size_t> chosen;  // element indices, ascending
  double cost = 0.0;
  double lp_lower_bound = 0.0;      // LP optimum: certified lower bound
  /// True when the LP solve failed (iteration limit, numerical poisoning)
  /// and the greedy cover was substituted; lp_lower_bound is then 0 (no
  /// certified bound).  See DESIGN.md §10 (degradation chain).
  bool fallback_used = false;
  /// Human-readable reason when fallback_used ("lp iteration-limit
  /// (phase 2, 20000 iterations)", "lp numerical", ...).
  std::string fallback_reason;
  /// solve_covering_exact only: the branch and bound finished within its
  /// node cap, so `cost` is the minimum.
  bool proven_optimal = false;
};

/// Solves the LP relaxation of `problem` and rounds to an integral cover.
/// `rng` drives randomized rounding; `budget` (nullptr = unlimited) is
/// charged one unit per simplex pivot.  Infeasible only when some set is
/// empty (nothing can cover that constraint).
CoveringSolution solve_covering_lp(const CoveringProblem& problem, Rng& rng,
                                   WorkBudget* budget = nullptr);

/// Classical greedy weighted set cover (max newly-covered per unit cost);
/// used by GreedyPathCover.  Same feasibility semantics.
CoveringSolution solve_covering_greedy(const CoveringProblem& problem);

/// Exact minimum-cost cover by LP-based branch and bound (branch on the
/// most fractional element; LP relaxation bounds; greedy incumbent).
/// Intended for constraint-generation subproblems (tens of sets), where
/// it certifies global optimality of the Force Path Cut solution.  Past a
/// fixed node cap it returns the incumbent with `proven_optimal = false`.
CoveringSolution solve_covering_exact(const CoveringProblem& problem);

}  // namespace mts
