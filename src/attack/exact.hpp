// Certified-optimal Force Path Cut.
//
// Constraint generation with an *exact* (branch-and-bound) set cover per
// round.  Standard argument for global optimality: the final cover is
// optimal for the discovered constraint subset, every feasible attack
// must also cover that subset, and the returned cut is feasible for the
// full problem (oracle clean) — so its cost equals the global optimum.
// Used to quantify how close the paper's four approximations get
// (PATHATTACK reports its LP variant optimal in > 98% of instances).
#pragma once

#include "attack/problem.hpp"

namespace mts::attack {

struct ExactAttackResult : AttackResult {
  /// True when every branch-and-bound solve finished within its node cap,
  /// making `total_cost` a certified global optimum.
  bool proven_optimal = false;
};

/// Solves `problem` to certified optimality (budget, protected-edge and
/// cost-validation semantics as in run_attack).
ExactAttackResult run_exact_attack(const ForcePathCutProblem& problem);

}  // namespace mts::attack
