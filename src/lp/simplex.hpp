// Dense two-phase primal simplex for the covering relaxation.
//
// LP-PathCover solves the LP relaxation of a weighted set cover: minimize
// c^T x subject to "each discovered constraint path contains at least one
// removed edge".  After constraint generation these LPs are small (tens of
// rows, hundreds of columns), so an exact dense tableau simplex is the
// right tool — no external solver dependency.
//
// The one problem handled here:
//     minimize   c^T x
//     subject to sum_{j in S_i} x_j >= 1     for each set S_i
//                x >= 0
// Phase 1 drives artificial variables out of the basis; phase 2 optimizes
// the true objective.  Dantzig pricing with a Bland's-rule fallback after
// a stall threshold guarantees termination.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/budget.hpp"

namespace mts {

/// Numerical = the solve terminated but produced a non-finite objective or
/// solution vector (poisoned input, catastrophic cancellation); callers
/// treat it like IterationLimit and fall back (see lp/covering.cpp).
enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit, Numerical };

struct CoveringProblem {
  /// cost[j] of picking element j (an edge), > 0.
  std::vector<double> costs;
  /// sets[i] lists the element indices that cover constraint i (the
  /// removable edges of path i).  Every set must be non-empty.
  std::vector<std::vector<std::size_t>> sets;
};

struct LpOptions {
  /// Validate the tableau (basis is a unit sub-matrix, RHS non-negative,
  /// basic reduced costs zero) after every pivot, throwing
  /// InvariantViolation on corruption.  Always treated as true in
  /// MTS_ENABLE_DCHECKS builds (Debug / MTS_SANITIZE); opt-in elsewhere.
  bool check_invariants = false;
  /// Work meter charged once per pivot (nullptr = uncapped and
  /// uncounted); exceeding its cap throws BudgetExhausted (core/budget.hpp).
  WorkBudget* budget = nullptr;
};

struct LpResult {
  LpStatus status = LpStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> x;  // size costs.size() when status == Optimal
  std::size_t iterations = 0;
  /// Which simplex phase hit the iteration cap (0 = none, 1, or 2).  Lets
  /// fallback decisions and reports distinguish a phase-1 stall (couldn't
  /// even prove feasibility) from a phase-2 stall (feasible but unoptimized).
  int limit_phase = 0;
};

/// Solves the LP relaxation of `problem`; never throws on
/// solvable-but-degenerate input, throws PreconditionViolation when a set
/// names an element index out of range.  An empty set makes the LP
/// Infeasible, a negative cost makes it Unbounded.
LpResult solve_lp(const CoveringProblem& problem, const LpOptions& options = {});

/// Human-readable status name (for logs and tests).
std::string to_string(LpStatus status);

}  // namespace mts
