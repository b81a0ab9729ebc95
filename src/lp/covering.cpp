#include "lp/covering.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace mts {

namespace {

/// True if `picked` covers every set.
bool covers_all(const CoveringProblem& problem, const std::vector<std::uint8_t>& picked) {
  for (const auto& set : problem.sets) {
    bool covered = false;
    for (std::size_t j : set) {
      if (picked[j]) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

/// Randomized-rounding attempts on top of the deterministic sweep.
constexpr std::size_t kRandomizedAttempts = 8;
/// Branch-and-bound node cap for solve_covering_exact.
constexpr std::size_t kMaxNodes = 200000;

double total_cost(const CoveringProblem& problem, const std::vector<std::uint8_t>& picked) {
  double cost = 0.0;
  for (std::size_t j = 0; j < picked.size(); ++j) {
    if (picked[j]) cost += problem.costs[j];
  }
  return cost;
}

/// Drops elements that are not needed (reverse-delete), cheapest kept.
void prune(const CoveringProblem& problem, std::vector<std::uint8_t>& picked) {
  // Try removing elements in descending cost order; keep removal if the
  // cover stays valid.
  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < picked.size(); ++j) {
    if (picked[j]) order.push_back(j);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return problem.costs[a] > problem.costs[b]; });
  for (std::size_t j : order) {
    picked[j] = 0;
    if (!covers_all(problem, picked)) picked[j] = 1;
  }
}

std::vector<std::size_t> to_indices(const std::vector<std::uint8_t>& picked) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < picked.size(); ++j) {
    if (picked[j]) out.push_back(j);
  }
  return out;
}

}  // namespace

CoveringSolution solve_covering_lp(const CoveringProblem& problem, Rng& rng,
                                   WorkBudget* budget) {
  CoveringSolution solution;
  for (const auto& set : problem.sets) {
    if (set.empty()) return solution;  // uncoverable constraint
  }
  if (problem.sets.empty()) {
    solution.feasible = true;
    return solution;
  }

  LpOptions lp_options;
  lp_options.budget = budget;
  const LpResult lp_result = solve_lp(problem, lp_options);
  if (lp_result.status != LpStatus::Optimal) {
    // Degradation chain: a covering LP is always feasible and bounded once
    // every set is non-empty (x = 1 covers; costs > 0), so a non-Optimal
    // status means the solver gave up (iteration limit) or the tableau went
    // numerically bad.  Substitute the greedy cover — valid, just without
    // the LP's certified lower bound — and record why.
    CoveringSolution fallback = solve_covering_greedy(problem);
    fallback.fallback_used = true;
    fallback.fallback_reason = "lp " + to_string(lp_result.status);
    if (lp_result.status == LpStatus::IterationLimit) {
      fallback.fallback_reason += " (phase " + std::to_string(lp_result.limit_phase) + ", " +
                                  std::to_string(lp_result.iterations) + " iterations)";
    }
    return fallback;
  }
  solution.lp_lower_bound = lp_result.objective;

  // Deterministic sweep: add elements in descending fractional value until
  // covered, then prune.  It always covers (every set is non-empty, so
  // taking every element would), which makes it the baseline the
  // randomized attempts below must beat.
  const std::size_t n = problem.costs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return lp_result.x[a] > lp_result.x[b]; });
  std::vector<std::uint8_t> best(n, 0);
  for (std::size_t j : order) {
    if (covers_all(problem, best)) break;
    best[j] = 1;
  }
  prune(problem, best);
  double best_cost = total_cost(problem, best);

  // Randomized rounding: include j with probability min(1, scale * x_j),
  // escalating scale until valid; keep the cheapest result.
  for (std::size_t attempt = 0; attempt < kRandomizedAttempts; ++attempt) {
    std::vector<std::uint8_t> picked(n, 0);
    double scale = 1.0;
    for (int escalation = 0; escalation < 8; ++escalation) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!picked[j] && rng.chance(std::min(1.0, scale * lp_result.x[j]))) picked[j] = 1;
      }
      if (covers_all(problem, picked)) break;
      scale *= 2.0;
    }
    if (!covers_all(problem, picked)) continue;
    prune(problem, picked);
    const double cost = total_cost(problem, picked);
    if (cost < best_cost) {
      best = picked;
      best_cost = cost;
    }
  }

  solution.feasible = true;
  solution.chosen = to_indices(best);
  solution.cost = best_cost;
  return solution;
}

CoveringSolution solve_covering_greedy(const CoveringProblem& problem) {
  CoveringSolution solution;
  for (const auto& set : problem.sets) {
    if (set.empty()) return solution;
  }

  const std::size_t n = problem.costs.size();
  // element -> constraints it covers (inverted index).
  std::vector<std::vector<std::size_t>> covers(n);
  for (std::size_t i = 0; i < problem.sets.size(); ++i) {
    for (std::size_t j : problem.sets[i]) covers[j].push_back(i);
  }

  std::vector<std::uint8_t> satisfied(problem.sets.size(), 0);
  std::size_t remaining = problem.sets.size();
  std::vector<std::uint8_t> picked(n, 0);

  while (remaining > 0) {
    std::size_t best_j = n;
    double best_ratio = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (picked[j]) continue;
      std::size_t gain = 0;
      for (std::size_t i : covers[j]) gain += satisfied[i] ? 0 : 1;
      if (gain == 0) continue;
      const double ratio = static_cast<double>(gain) / problem.costs[j];
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_j = j;
      }
    }
    require(best_j < n, "greedy cover: no progress despite non-empty sets");
    picked[best_j] = 1;
    for (std::size_t i : covers[best_j]) {
      if (!satisfied[i]) {
        satisfied[i] = 1;
        --remaining;
      }
    }
  }

  prune(problem, picked);
  solution.feasible = true;
  solution.chosen = to_indices(picked);
  solution.cost = total_cost(problem, picked);
  return solution;
}

namespace {

/// Branch-and-bound state: forced elements are in the cover, forbidden
/// ones excluded.  Sets already hit by a forced element drop out of the
/// LP subproblem.
struct BranchState {
  std::vector<std::uint8_t> forced;
  std::vector<std::uint8_t> forbidden;
  double forced_cost = 0.0;
};

/// Builds the reduced LP for the current branch; returns nullopt when a
/// set has no pickable element left (infeasible branch).
std::optional<LpResult> branch_lp(const CoveringProblem& problem, const BranchState& state) {
  CoveringProblem lp;
  lp.costs = problem.costs;
  for (const auto& set : problem.sets) {
    bool hit = false;
    std::vector<std::size_t> indices;
    for (std::size_t j : set) {
      if (state.forced[j]) {
        hit = true;
        break;
      }
      if (!state.forbidden[j]) indices.push_back(j);
    }
    if (hit) continue;
    if (indices.empty()) return std::nullopt;
    lp.sets.push_back(std::move(indices));
  }
  // Forbidden elements appear in no row, so their x stays 0.
  auto result = solve_lp(lp);
  if (result.status != LpStatus::Optimal) return std::nullopt;
  return result;
}

}  // namespace

CoveringSolution solve_covering_exact(const CoveringProblem& problem) {
  // Incumbent from the greedy heuristic (same feasibility semantics).
  CoveringSolution solution = solve_covering_greedy(problem);
  if (!solution.feasible) return solution;
  if (problem.sets.empty()) {
    solution.proven_optimal = true;
    return solution;
  }
  const std::size_t n = problem.costs.size();

  constexpr double kEps = 1e-7;
  bool exhausted_cleanly = true;

  // Depth-first branch and bound (explicit stack).
  std::vector<BranchState> stack;
  stack.push_back({std::vector<std::uint8_t>(n, 0), std::vector<std::uint8_t>(n, 0), 0.0});
  std::size_t nodes_explored = 0;
  while (!stack.empty()) {
    if (nodes_explored >= kMaxNodes) {
      exhausted_cleanly = false;
      break;
    }
    ++nodes_explored;
    BranchState state = std::move(stack.back());
    stack.pop_back();

    const auto lp = branch_lp(problem, state);
    if (!lp) continue;  // infeasible branch
    // Objective includes only free variables; forced cost adds on top.
    if (lp->objective + state.forced_cost >= solution.cost - kEps) continue;  // pruned

    // Integral? (forced vars were substituted out; check the LP vector.)
    std::size_t branch_var = n;
    double most_fractional = kEps;
    for (std::size_t j = 0; j < n; ++j) {
      if (state.forced[j] || state.forbidden[j]) continue;
      const double frac = std::min(lp->x[j], 1.0 - std::min(1.0, lp->x[j]));
      if (frac > most_fractional) {
        most_fractional = frac;
        branch_var = j;
      }
    }
    if (branch_var == n) {
      // Integral optimum for this branch: adopt as the new incumbent.
      std::vector<std::size_t> chosen;
      double cost = state.forced_cost;
      for (std::size_t j = 0; j < n; ++j) {
        if (state.forced[j] || lp->x[j] > 0.5) {
          chosen.push_back(j);
          if (!state.forced[j]) cost += problem.costs[j];
        }
      }
      if (cost < solution.cost - kEps) {
        solution.chosen = std::move(chosen);
        solution.cost = cost;
      }
      continue;
    }

    // Branch: forbid first (tends to prune faster), then force.
    BranchState forbid = state;
    forbid.forbidden[branch_var] = 1;
    stack.push_back(std::move(forbid));
    BranchState force = std::move(state);
    force.forced[branch_var] = 1;
    force.forced_cost += problem.costs[branch_var];
    stack.push_back(std::move(force));
  }

  solution.proven_optimal = exhausted_cleanly;
  // Normalize: ascending ids, exact cost from scratch.
  std::sort(solution.chosen.begin(), solution.chosen.end());
  solution.cost = 0.0;
  for (std::size_t j : solution.chosen) solution.cost += problem.costs[j];
  return solution;
}

}  // namespace mts
