#include "attack/exact.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "attack/oracle.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "lp/covering.hpp"

namespace mts::attack {

ExactAttackResult run_exact_attack(const ForcePathCutProblem& problem) {
  require(problem.graph != nullptr, "exact attack: null graph");
  require(problem.weights.size() == problem.graph->num_edges(),
          "exact attack: weights size mismatch");
  require(problem.costs.size() == problem.graph->num_edges(),
          "exact attack: costs size mismatch");
  require_valid_costs(problem, "exact attack");

  Stopwatch stopwatch;
  ExactAttackResult result;
  ExclusivityOracle oracle(problem);

  std::vector<std::uint8_t> unremovable(problem.graph->num_edges(), 0);
  for (EdgeId e : problem.p_star.edges) unremovable[e.value()] = 1;
  if (!problem.protected_edges.empty()) {
    require(problem.protected_edges.size() == problem.graph->num_edges(),
            "exact attack: protected_edges size mismatch");
    for (EdgeId e : problem.graph->edges()) {
      if (problem.protected_edges[e.value()]) unremovable[e.value()] = 1;
    }
  }

  const double len_star = oracle.p_star_length();
  const double eps = oracle.tie_epsilon();
  std::vector<Path> constraints;
  std::unordered_set<std::uint64_t> signatures;
  for (const Path& p : problem.seed_paths) {
    if (p.edges == problem.p_star.edges) continue;
    if (path_length(p.edges, problem.weights) > len_star + eps) continue;
    if (signatures.insert(path_signature(p)).second) constraints.push_back(p);
  }

  EdgeFilter filter(problem.graph->num_edges());
  bool all_proven = true;

  auto finish = [&](AttackStatus status, std::vector<EdgeId> removed, std::size_t iterations) {
    std::sort(removed.begin(), removed.end());
    result.removed_edges = std::move(removed);
    result.total_cost = 0.0;
    for (EdgeId e : result.removed_edges) result.total_cost += problem.costs[e.value()];
    if (status == AttackStatus::Success && result.total_cost > problem.budget) {
      status = AttackStatus::BudgetExceeded;
    }
    result.status = status;
    result.proven_optimal = status == AttackStatus::Success && all_proven;
    result.oracle_calls = oracle.calls();
    result.iterations = iterations;
    result.seconds = stopwatch.reported();
    return result;
  };

  for (std::size_t iter = 0; iter < kMaxAttackIterations; ++iter) {
    std::unordered_map<std::uint32_t, std::size_t> var_of;
    std::vector<EdgeId> vars;
    CoveringProblem covering;
    for (const Path& path : constraints) {
      std::vector<std::size_t> set;
      for (EdgeId e : path.edges) {
        if (unremovable[e.value()]) continue;
        const auto [it, inserted] = var_of.emplace(e.value(), vars.size());
        if (inserted) vars.push_back(e);
        set.push_back(it->second);
      }
      if (set.empty()) return finish(AttackStatus::Infeasible, {}, iter);
      covering.sets.push_back(std::move(set));
    }
    covering.costs.reserve(vars.size());
    for (EdgeId e : vars) covering.costs.push_back(problem.costs[e.value()]);

    std::vector<EdgeId> cut;
    if (!covering.sets.empty()) {
      const ExactCoverSolution cover = solve_covering_exact(covering);
      require(cover.feasible, "exact attack: cover unexpectedly infeasible");
      all_proven &= cover.proven_optimal;
      for (std::size_t j : cover.chosen) cut.push_back(vars[j]);
    }

    filter.clear();
    for (EdgeId e : cut) filter.remove(e);
    double cut_cost = 0.0;
    for (EdgeId e : cut) cut_cost += problem.costs[e.value()];
    if (cut_cost > problem.budget) {
      return finish(AttackStatus::BudgetExceeded, std::move(cut), iter);
    }

    const auto violating = oracle.find_violating_path(filter);
    if (!violating) return finish(AttackStatus::Success, std::move(cut), iter);
    if (!signatures.insert(path_signature(*violating)).second) {
      // Duplicate within tolerance: optimality certification breaks; fall
      // back to declaring the run unproven and force progress.
      all_proven = false;
      EdgeId cheapest = EdgeId::invalid();
      for (EdgeId e : violating->edges) {
        if (unremovable[e.value()]) continue;
        if (!cheapest.valid() ||
            problem.costs[e.value()] < problem.costs[cheapest.value()]) {
          cheapest = e;
        }
      }
      if (!cheapest.valid()) return finish(AttackStatus::Infeasible, std::move(cut), iter);
      // Add it as a singleton constraint so every future cover includes it.
      Path singleton;
      singleton.edges = {cheapest};
      constraints.push_back(std::move(singleton));
    } else {
      constraints.push_back(*violating);
    }
  }
  return finish(AttackStatus::IterationLimit, filter.removed_edges(), kMaxAttackIterations);
}

}  // namespace mts::attack
