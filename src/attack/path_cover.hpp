// PATHATTACK's constraint-generation loop (Miller et al., PAPERS.md), the
// one loop behind LP-PathCover, GreedyPathCover, the exact baseline and the
// multi-victim attack.
//
// Each round covers the known paths that beat some victim's p* with
// removable edges, cuts the cover, and asks every victim's oracle for a
// path the cut missed; the run ends when no oracle finds one.  Callers vary
// two things only: the cover solver (LP rounding, greedy, exact branch and
// bound) and the victims (one oracle each).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/problem.hpp"
#include "lp/covering.hpp"

namespace mts::attack {

/// Per edge, 1 when no cut may take it: it lies on some oracle's p* or is
/// protected in that oracle's problem.
std::vector<std::uint8_t> unremovable_edges(std::span<const ExclusivityOracle> oracles);

/// Closes an attack on `cut`: sorts it, sums its cost in that order, and
/// demotes a Success that costs more than `budget` to BudgetExceeded.
/// `oracle_calls` is left to the caller.
AttackResult close_attack(AttackStatus status, std::vector<EdgeId> cut, std::size_t iterations,
                          std::span<const double> costs, double budget);

/// Solves one round's covering instance (sets of removable-edge indices).
using CoverSolver = std::function<CoveringSolution(const CoveringProblem&)>;

struct PathCoverResult {
  /// Status, sorted cut, cost, rounds, oracle calls (summed over the
  /// oracles), the max LP lower bound over rounds and the first fallback.
  AttackResult attack;
  /// Success, and every cover solve was proven optimal.
  bool proven_optimal = false;
  /// Per oracle: 1 when its p* was exclusively shortest under the last cut
  /// it was asked about (all 1 on Success).
  std::vector<std::uint8_t> victim_forced;
};

/// Runs constraint generation until one cut forces every oracle's p*.
/// Seeds the constraints from each problem's `seed_paths` (skipping p* and
/// paths longer than p* beyond the tie tolerance).  Every problem must
/// share the first one's graph, weights, costs and budget.  Infeasible, with
/// an empty cut, when some constraint path has no removable edge.
PathCoverResult run_path_cover(std::span<const ExclusivityOracle> oracles,
                               const CoverSolver& solve);

}  // namespace mts::attack
