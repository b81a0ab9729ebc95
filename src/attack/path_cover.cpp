#include "attack/path_cover.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace mts::attack {

std::vector<std::uint8_t> unremovable_edges(std::span<const ExclusivityOracle> oracles) {
  const ForcePathCutProblem& first = oracles.front().problem();
  std::vector<std::uint8_t> unremovable(first.graph->num_edges(), 0);
  for (const ExclusivityOracle& oracle : oracles) {
    const ForcePathCutProblem& problem = oracle.problem();
    for (EdgeId e : problem.p_star.edges) unremovable[e.value()] = 1;
    for (std::size_t e = 0; e < problem.protected_edges.size(); ++e) {
      if (problem.protected_edges[e]) unremovable[e] = 1;
    }
  }
  return unremovable;
}

AttackResult close_attack(AttackStatus status, std::vector<EdgeId> cut, std::size_t iterations,
                          std::span<const double> costs, double budget) {
  AttackResult result;
  result.removed_edges = std::move(cut);
  std::sort(result.removed_edges.begin(), result.removed_edges.end());
  for (EdgeId e : result.removed_edges) result.total_cost += costs[e.value()];
  if (status == AttackStatus::Success && result.total_cost > budget) {
    status = AttackStatus::BudgetExceeded;
  }
  result.status = status;
  result.iterations = iterations;
  return result;
}

PathCoverResult run_path_cover(std::span<const ExclusivityOracle> oracles,
                               const CoverSolver& solve) {
  static const obs::CounterId kConstraints =
      obs::MetricsRegistry::instance().counter("attack.constraints_generated");
  const ForcePathCutProblem& shared = oracles.front().problem();
  const std::vector<std::uint8_t> unremovable = unremovable_edges(oracles);

  // Constraint paths: every cut must hit each of them.
  std::vector<Path> constraints;
  std::unordered_set<std::uint64_t> signatures;
  const auto add_constraint = [&](const Path& path) {
    if (!signatures.insert(path_signature(path)).second) return;
    constraints.push_back(path);
    obs::add(kConstraints);
  };
  for (const ExclusivityOracle& oracle : oracles) {
    const ForcePathCutProblem& problem = oracle.problem();
    const double len_star = oracle.p_star_length();
    const double eps = oracle.tie_epsilon();
    for (const Path& p : problem.seed_paths) {
      if (p.edges == problem.p_star.edges) continue;
      if (path_length(p.edges, problem.weights) > len_star + eps) continue;
      add_constraint(p);
    }
  }

  PathCoverResult run;
  run.victim_forced.assign(oracles.size(), 0);
  double lp_lower_bound = 0.0;
  bool fallback_used = false;
  std::string fallback_reason;
  bool all_proven = true;
  const auto finish = [&](AttackStatus status, std::vector<EdgeId> cut, std::size_t iterations) {
    run.attack = close_attack(status, std::move(cut), iterations, shared.costs, shared.budget);
    for (const ExclusivityOracle& oracle : oracles) run.attack.oracle_calls += oracle.calls();
    run.attack.lp_lower_bound = lp_lower_bound;
    run.attack.fallback_used = fallback_used;
    run.attack.fallback_reason = fallback_reason;
    run.proven_optimal = run.attack.status == AttackStatus::Success && all_proven;
    return std::move(run);
  };

  EdgeFilter filter(shared.graph->num_edges());
  std::vector<EdgeId> cut;
  for (std::size_t iter = 0; iter < kMaxAttackIterations; ++iter) {
    // ---- Build the covering instance over removable edges.
    std::unordered_map<std::uint32_t, std::size_t> var_of;
    std::vector<EdgeId> vars;
    CoveringProblem covering;
    covering.sets.reserve(constraints.size());
    for (const Path& path : constraints) {
      std::vector<std::size_t> set;
      for (EdgeId e : path.edges) {
        if (unremovable[e.value()]) continue;
        const auto [it, inserted] = var_of.emplace(e.value(), vars.size());
        if (inserted) vars.push_back(e);
        set.push_back(it->second);
      }
      if (set.empty()) return finish(AttackStatus::Infeasible, {}, iter);  // fully protected
      covering.sets.push_back(std::move(set));
    }
    covering.costs.reserve(vars.size());
    for (EdgeId e : vars) covering.costs.push_back(shared.costs[e.value()]);

    // ---- Solve the cover from scratch (PATHATTACK's per-round re-solve).
    const CoveringSolution solution = solve(covering);
    require(solution.feasible, "path cover: covering unexpectedly infeasible");
    if (solution.fallback_used && !fallback_used) {
      fallback_used = true;
      fallback_reason = solution.fallback_reason;
      // Cold branch: lazy registration keeps the counter out of clean-run
      // snapshots (bench_gate byte-identity).
      static const obs::CounterId kFallbacks =
          obs::MetricsRegistry::instance().counter("attack.fallbacks");
      obs::add(kFallbacks);
    }
    lp_lower_bound = std::max(lp_lower_bound, solution.lp_lower_bound);
    all_proven &= solution.proven_optimal;

    cut.clear();
    double cut_cost = 0.0;
    filter.clear();
    for (std::size_t j : solution.chosen) {
      cut.push_back(vars[j]);
      cut_cost += shared.costs[vars[j].value()];
      filter.remove(vars[j]);
    }
    if (cut_cost > shared.budget) {
      return finish(AttackStatus::BudgetExceeded, std::move(cut), iter);
    }

    // ---- Oracles: did the cut force every p*?  A violating path avoids
    // the cut, and the cut hits every known constraint, so each path found
    // is new unless two victims report the same one.
    bool all_clear = true;
    for (std::size_t i = 0; i < oracles.size(); ++i) {
      const auto violating = oracles[i].find_violating_path(filter);
      run.victim_forced[i] = violating ? 0 : 1;
      if (!violating) continue;
      all_clear = false;
      add_constraint(*violating);
    }
    if (all_clear) return finish(AttackStatus::Success, std::move(cut), iter);
  }
  return finish(AttackStatus::IterationLimit, std::move(cut), kMaxAttackIterations);
}

}  // namespace mts::attack
