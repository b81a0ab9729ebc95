#include "attack/multi_victim.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "attack/oracle.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "lp/covering.hpp"

namespace mts::attack {

MultiVictimResult run_multi_victim_attack(const MultiVictimProblem& problem) {
  require(problem.graph != nullptr, "multi_victim: null graph");
  require(problem.weights.size() == problem.graph->num_edges(),
          "multi_victim: weights size mismatch");
  require(problem.costs.size() == problem.graph->num_edges(),
          "multi_victim: costs size mismatch");
  require(!problem.victims.empty(), "multi_victim: no victims");

  Stopwatch stopwatch;
  MultiVictimResult result;
  result.victim_forced.assign(problem.victims.size(), 0);

  // Protected set: the union of all chosen paths.
  std::vector<std::uint8_t> in_any_p_star(problem.graph->num_edges(), 0);
  for (const Victim& victim : problem.victims) {
    for (EdgeId e : victim.p_star.edges) in_any_p_star[e.value()] = 1;
  }
  auto removable = [&](EdgeId e) { return !in_any_p_star[e.value()]; };

  // One per-victim oracle over a per-victim sub-problem view.
  std::vector<ForcePathCutProblem> sub_problems(problem.victims.size());
  std::vector<std::unique_ptr<ExclusivityOracle>> oracles;
  oracles.reserve(problem.victims.size());
  for (std::size_t i = 0; i < problem.victims.size(); ++i) {
    auto& sub = sub_problems[i];
    sub.graph = problem.graph;
    sub.weights = problem.weights;
    sub.costs = problem.costs;
    sub.source = problem.victims[i].source;
    sub.target = problem.victims[i].target;
    sub.p_star = problem.victims[i].p_star;
    oracles.push_back(std::make_unique<ExclusivityOracle>(sub));
  }

  // Constraint paths (union over victims), seeded from each victim's
  // known shorter paths.
  std::vector<Path> constraints;
  std::unordered_set<std::uint64_t> signatures;
  for (std::size_t i = 0; i < problem.victims.size(); ++i) {
    const double len_star = oracles[i]->p_star_length();
    const double eps = oracles[i]->tie_epsilon();
    for (const Path& p : problem.victims[i].seed_paths) {
      if (p.edges == problem.victims[i].p_star.edges) continue;
      if (path_length(p.edges, problem.weights) > len_star + eps) continue;
      if (signatures.insert(path_signature(p)).second) constraints.push_back(p);
    }
  }

  std::vector<EdgeId> forced;
  std::unordered_set<std::uint32_t> forced_set;
  EdgeFilter filter(problem.graph->num_edges());

  auto finish = [&](AttackStatus status, std::vector<EdgeId> removed,
                    std::size_t iterations) {
    std::sort(removed.begin(), removed.end());
    result.removed_edges = std::move(removed);
    result.total_cost = 0.0;
    for (EdgeId e : result.removed_edges) result.total_cost += problem.costs[e.value()];
    if (status == AttackStatus::Success && result.total_cost > problem.budget) {
      status = AttackStatus::BudgetExceeded;
    }
    result.status = status;
    result.iterations = iterations;
    result.seconds = stopwatch.reported();
    return result;
  };

  for (std::size_t iter = 0; iter < kMaxAttackIterations; ++iter) {
    // Covering instance over removable edges of all constraint paths.
    std::unordered_map<std::uint32_t, std::size_t> var_of;
    std::vector<EdgeId> vars;
    CoveringProblem covering;
    for (const Path& path : constraints) {
      bool hit = false;
      for (EdgeId e : path.edges) {
        if (forced_set.contains(e.value())) {
          hit = true;
          break;
        }
      }
      if (hit) continue;
      std::vector<std::size_t> set;
      for (EdgeId e : path.edges) {
        if (!removable(e)) continue;
        const auto [it, inserted] = var_of.emplace(e.value(), vars.size());
        if (inserted) vars.push_back(e);
        set.push_back(it->second);
      }
      if (set.empty()) return finish(AttackStatus::Infeasible, std::move(forced), iter);
      covering.sets.push_back(std::move(set));
    }
    covering.costs.reserve(vars.size());
    for (EdgeId e : vars) covering.costs.push_back(problem.costs[e.value()]);

    std::vector<EdgeId> cut = forced;
    if (!covering.sets.empty()) {
      const CoveringSolution solution = solve_covering_greedy(covering);
      require(solution.feasible, "multi_victim: covering unexpectedly infeasible");
      for (std::size_t j : solution.chosen) cut.push_back(vars[j]);
    }

    filter.clear();
    for (EdgeId e : cut) filter.remove(e);
    double cut_cost = 0.0;
    for (EdgeId e : cut) cut_cost += problem.costs[e.value()];
    if (cut_cost > problem.budget) {
      return finish(AttackStatus::BudgetExceeded, std::move(cut), iter);
    }

    // Query every victim; gather all surviving violations.
    bool all_clear = true;
    for (std::size_t i = 0; i < problem.victims.size(); ++i) {
      const auto violating = oracles[i]->find_violating_path(filter);
      ++result.oracle_calls;
      if (!violating) {
        result.victim_forced[i] = 1;
        continue;
      }
      result.victim_forced[i] = 0;
      all_clear = false;
      if (signatures.insert(path_signature(*violating)).second) {
        constraints.push_back(*violating);
      } else {
        // Tolerance-boundary duplicate: permanently force its cheapest
        // removable edge (progress guarantee, as in single-victim).
        EdgeId cheapest = EdgeId::invalid();
        for (EdgeId e : violating->edges) {
          if (!removable(e) || forced_set.contains(e.value())) continue;
          if (!cheapest.valid() ||
              problem.costs[e.value()] < problem.costs[cheapest.value()]) {
            cheapest = e;
          }
        }
        if (!cheapest.valid()) {
          return finish(AttackStatus::Infeasible, filter.removed_edges(), iter);
        }
        forced.push_back(cheapest);
        forced_set.insert(cheapest.value());
      }
    }
    if (all_clear) return finish(AttackStatus::Success, std::move(cut), iter);
  }
  return finish(AttackStatus::IterationLimit, filter.removed_edges(), kMaxAttackIterations);
}

}  // namespace mts::attack
