// Defensive hardening analysis (the flip side of the paper's attack).
//
// A city operator who can protect (make unblockable) a limited set of road
// segments wants to maximize the attacker's cost of forcing any alternative
// route.  We provide a greedy defender that repeatedly protects the
// segment most used by the attacker's current cheapest plan, re-running
// the attack between rounds — a standard Stackelberg-style heuristic that
// quantifies how quickly hardening drives attack cost up.
#pragma once

#include <span>
#include <vector>

#include "attack/algorithms.hpp"

namespace mts::attack {

struct DefenseRound {
  EdgeId protected_edge;
  double attack_cost_before = 0.0;
  double attack_cost_after = 0.0;
};

struct DefenseResult {
  std::vector<EdgeId> protected_edges;
  std::vector<DefenseRound> rounds;
  double initial_attack_cost = 0.0;
  double final_attack_cost = 0.0;  // +inf if the attack became infeasible
  bool attack_blocked = false;     // attacker could no longer force p*
};

/// Greedily protects up to `max_protected` edges against the Force Path
/// Cut instance in `problem`, pricing each move with GreedyPathCover (the
/// paper's best quality/speed trade-off).  Protection is a mask on a copy
/// of the problem (`protected_edges`); costs are never modified.
DefenseResult harden_against_force_path_cut(const ForcePathCutProblem& problem,
                                            std::size_t max_protected);

}  // namespace mts::attack
