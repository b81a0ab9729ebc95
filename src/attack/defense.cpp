#include "attack/defense.hpp"

#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace mts::attack {

namespace {

/// Attack cost under the given protection mask; +inf when the attack can
/// no longer succeed (Infeasible or budget-bound).
double evaluate(const ForcePathCutProblem& base, const std::vector<std::uint8_t>& protection,
                AttackResult* out = nullptr) {
  ForcePathCutProblem problem = base;
  problem.protected_edges = protection;
  const AttackResult result = run_attack(Algorithm::GreedyPathCover, problem);
  if (out != nullptr) *out = result;
  if (result.status != AttackStatus::Success) {
    return std::numeric_limits<double>::infinity();
  }
  return result.total_cost;
}

}  // namespace

DefenseResult harden_against_force_path_cut(const ForcePathCutProblem& problem,
                                            std::size_t max_protected) {
  require(problem.graph != nullptr, "harden: null graph");
  require(problem.protected_edges.empty(),
          "harden: problem already carries a protection mask");

  DefenseResult result;
  std::vector<std::uint8_t> protection(problem.graph->num_edges(), 0);

  AttackResult attack;
  double current_cost = evaluate(problem, protection, &attack);
  result.initial_attack_cost = current_cost;
  result.final_attack_cost = current_cost;
  if (!std::isfinite(current_cost)) {
    result.attack_blocked = true;  // nothing to defend: attack already fails
    return result;
  }

  for (std::size_t round = 0; round < max_protected; ++round) {
    // Candidates: the edges the attacker actually uses right now.
    // Protecting anything else cannot change this plan's cost.  Protection
    // only restricts the attacker, so every trial costs at least
    // `current_cost`; ties are still worth taking — hardening one arm
    // edge-by-edge eventually blocks it even though each single step
    // looks cost-neutral.
    EdgeId best_edge = EdgeId::invalid();
    double best_cost = -1.0;
    AttackResult best_attack;
    for (EdgeId candidate : attack.removed_edges) {
      protection[candidate.value()] = 1;
      AttackResult trial_attack;
      const double trial = evaluate(problem, protection, &trial_attack);
      protection[candidate.value()] = 0;
      if (trial > best_cost) {
        best_cost = trial;
        best_edge = candidate;
        best_attack = trial_attack;
      }
    }
    if (!best_edge.valid()) break;  // attacker removes nothing: cannot defend more

    protection[best_edge.value()] = 1;
    result.protected_edges.push_back(best_edge);
    result.rounds.push_back({best_edge, current_cost, best_cost});
    current_cost = best_cost;
    result.final_attack_cost = best_cost;
    if (!std::isfinite(best_cost)) {
      result.attack_blocked = true;
      break;
    }
    attack = best_attack;
  }
  return result;
}

}  // namespace mts::attack
