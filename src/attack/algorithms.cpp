#include "attack/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "attack/oracle.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "graph/eigen.hpp"
#include "lp/covering.hpp"
#include "obs/phase.hpp"

namespace mts::attack {

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::LpPathCover: return "LP-PathCover";
    case Algorithm::GreedyPathCover: return "GreedyPathCover";
    case Algorithm::GreedyEdge: return "GreedyEdge";
    case Algorithm::GreedyEig: return "GreedyEig";
  }
  return "?";
}

const char* to_string(AttackStatus status) {
  switch (status) {
    case AttackStatus::Success: return "success";
    case AttackStatus::BudgetExceeded: return "budget-exceeded";
    case AttackStatus::Infeasible: return "infeasible";
    case AttackStatus::IterationLimit: return "iteration-limit";
    case AttackStatus::BudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

namespace {

/// Shared per-run context.
struct Context {
  const ForcePathCutProblem& problem;
  ExclusivityOracle oracle;
  std::vector<std::uint8_t> in_p_star;  // per edge

  explicit Context(const ForcePathCutProblem& p, WorkBudget* budget = nullptr,
                   RequestTrace* trace = nullptr)
      : problem(p), oracle(p, budget, trace), in_p_star(p.graph->num_edges(), 0) {
    for (EdgeId e : p.p_star.edges) in_p_star[e.value()] = 1;
  }

  [[nodiscard]] bool removable(EdgeId e) const {
    if (in_p_star[e.value()]) return false;
    return problem.protected_edges.empty() || !problem.protected_edges[e.value()];
  }

  [[nodiscard]] double cost_of(const std::vector<EdgeId>& edges) const {
    double total = 0.0;
    for (EdgeId e : edges) total += problem.costs[e.value()];
    return total;
  }
};

/// Finishes a result: status from budget, bookkeeping from the oracle.
AttackResult finish(Context& ctx, AttackStatus status, std::vector<EdgeId> removed,
                    std::size_t iterations) {
  AttackResult result;
  result.removed_edges = std::move(removed);
  std::sort(result.removed_edges.begin(), result.removed_edges.end());
  result.total_cost = ctx.cost_of(result.removed_edges);
  result.oracle_calls = ctx.oracle.calls();
  result.iterations = iterations;
  if (status == AttackStatus::Success && result.total_cost > ctx.problem.budget) {
    status = AttackStatus::BudgetExceeded;
  }
  result.status = status;

  static const obs::CounterId kRuns = obs::MetricsRegistry::instance().counter("attack.runs");
  static const obs::CounterId kRounds = obs::MetricsRegistry::instance().counter("attack.rounds");
  static const obs::CounterId kOracleCalls =
      obs::MetricsRegistry::instance().counter("attack.oracle_calls");
  static const obs::CounterId kEdgesRemoved =
      obs::MetricsRegistry::instance().counter("attack.edges_removed");
  obs::add(kRuns);
  obs::add(kRounds, result.iterations);
  obs::add(kOracleCalls, result.oracle_calls);
  obs::add(kEdgesRemoved, result.removed_edges.size());
  return result;
}

// ---- GreedyEdge / GreedyEig ------------------------------------------------

/// Iteratively removes one scored edge from each violating path.
/// `better(a, b)` returns true when edge a is preferable to edge b.
template <typename Better>
AttackResult run_iterative(Context& ctx, Better better) {
  EdgeFilter filter(ctx.problem.graph->num_edges());
  std::vector<EdgeId> removed;

  for (std::size_t iter = 0; iter < kMaxAttackIterations; ++iter) {
    const auto violating = ctx.oracle.find_violating_path(filter);
    if (!violating) return finish(ctx, AttackStatus::Success, std::move(removed), iter);

    EdgeId choice = EdgeId::invalid();
    for (EdgeId e : violating->edges) {
      if (!ctx.removable(e)) continue;
      if (!choice.valid() || better(e, choice)) choice = e;
    }
    // A violating path always has an edge outside p*, but a defender may
    // have protected all of them — then p* simply cannot be forced.
    if (!choice.valid()) {
      return finish(ctx, AttackStatus::Infeasible, std::move(removed), iter);
    }

    filter.remove(choice);
    removed.push_back(choice);
    if (ctx.cost_of(removed) > ctx.problem.budget) {
      return finish(ctx, AttackStatus::BudgetExceeded, std::move(removed), iter + 1);
    }
  }
  return finish(ctx, AttackStatus::IterationLimit, std::move(removed), kMaxAttackIterations);
}

AttackResult run_greedy_edge(Context& ctx) {
  // Paper: "cuts the shortest road segment, not in p*, on the current
  // shortest route".
  return run_iterative(ctx, [&](EdgeId a, EdgeId b) {
    return ctx.problem.weights[a.value()] < ctx.problem.weights[b.value()];
  });
}

AttackResult run_greedy_eig(Context& ctx) {
  // Eigen-scores come from the pristine graph: the attacker's topological
  // pre-analysis (recomputing per removal would change no ranking in
  // practice but cost a power iteration per cut).
  const auto eig = eigenvector_centrality(*ctx.problem.graph);
  const auto scores = edge_eigen_scores(*ctx.problem.graph, eig);
  return run_iterative(ctx, [&, scores](EdgeId a, EdgeId b) {
    const double ra = scores[a.value()] / ctx.problem.costs[a.value()];
    const double rb = scores[b.value()] / ctx.problem.costs[b.value()];
    return ra > rb;
  });
}

// ---- PathCover (greedy set cover and LP relaxation) -------------------------

AttackResult run_path_cover(Context& ctx, std::uint64_t rng_seed, WorkBudget* budget,
                            bool use_lp) {
  static const obs::CounterId kConstraints =
      obs::MetricsRegistry::instance().counter("attack.constraints_generated");
  static const obs::CounterId kForced =
      obs::MetricsRegistry::instance().counter("attack.forced_edges");
  Rng rng(rng_seed);
  const double eps = ctx.oracle.tie_epsilon();
  const double len_star = ctx.oracle.p_star_length();

  // Constraint paths: must be cut.  Seeded from the caller's Yen prefix.
  std::vector<Path> constraints;
  std::unordered_set<std::uint64_t> signatures;
  for (const Path& p : ctx.problem.seed_paths) {
    if (p.edges == ctx.problem.p_star.edges) continue;
    if (path_length(p.edges, ctx.problem.weights) > len_star + eps) continue;
    if (signatures.insert(path_signature(p)).second) {
      constraints.push_back(p);
      obs::add(kConstraints);
    }
  }

  // Edges the cut must always include (progress guarantee on duplicate
  // oracle answers near the tolerance boundary).
  std::vector<EdgeId> forced;
  std::unordered_set<std::uint32_t> forced_set;

  EdgeFilter filter(ctx.problem.graph->num_edges());
  double lp_lower_bound = 0.0;
  bool fallback_used = false;
  std::string fallback_reason;
  const auto finalize = [&](AttackResult result) {
    result.lp_lower_bound = lp_lower_bound;
    result.fallback_used = fallback_used;
    result.fallback_reason = fallback_reason;
    return result;
  };

  for (std::size_t iter = 0; iter < kMaxAttackIterations; ++iter) {
    // ---- Build the covering instance over removable edges.
    std::unordered_map<std::uint32_t, std::size_t> var_of;
    std::vector<EdgeId> vars;
    CoveringProblem covering;
    covering.sets.reserve(constraints.size());
    for (const Path& path : constraints) {
      // Paths already hit by a forced edge need no additional cover.
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
        if (!ctx.removable(e)) continue;
        const auto [it, inserted] = var_of.emplace(e.value(), vars.size());
        if (inserted) vars.push_back(e);
        set.push_back(it->second);
      }
      if (set.empty()) {  // fully protected constraint path: unforceable
        return finalize(finish(ctx, AttackStatus::Infeasible, std::move(forced), iter));
      }
      covering.sets.push_back(std::move(set));
    }
    covering.costs.reserve(vars.size());
    for (EdgeId e : vars) covering.costs.push_back(ctx.problem.costs[e.value()]);

    // ---- Solve the cover from scratch (PATHATTACK-style per-iteration
    // re-solve) and apply it together with the forced edges.
    std::vector<EdgeId> cut = forced;
    if (!covering.sets.empty()) {
      const CoveringSolution solution =
          use_lp ? solve_covering_lp(covering, rng, budget) : solve_covering_greedy(covering);
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
      if (use_lp) lp_lower_bound = std::max(lp_lower_bound, solution.lp_lower_bound);
      for (std::size_t j : solution.chosen) cut.push_back(vars[j]);
    }

    filter.clear();
    for (EdgeId e : cut) filter.remove(e);
    if (ctx.cost_of(cut) > ctx.problem.budget) {
      return finalize(finish(ctx, AttackStatus::BudgetExceeded, std::move(cut), iter));
    }

    // ---- Oracle: did the cut force p*?
    const auto violating = ctx.oracle.find_violating_path(filter);
    if (!violating) {
      return finalize(finish(ctx, AttackStatus::Success, std::move(cut), iter));
    }
    if (signatures.insert(path_signature(*violating)).second) {
      constraints.push_back(*violating);
      obs::add(kConstraints);
    } else {
      // Tolerance-boundary duplicate: permanently cut its cheapest
      // removable edge so the next iteration strictly progresses.
      EdgeId cheapest = EdgeId::invalid();
      for (EdgeId e : violating->edges) {
        if (!ctx.removable(e) || forced_set.contains(e.value())) continue;
        if (!cheapest.valid() ||
            ctx.problem.costs[e.value()] < ctx.problem.costs[cheapest.value()]) {
          cheapest = e;
        }
      }
      if (!cheapest.valid()) {
        return finalize(finish(ctx, AttackStatus::Infeasible, filter.removed_edges(), iter));
      }
      forced.push_back(cheapest);
      forced_set.insert(cheapest.value());
      obs::add(kForced);
    }
  }
  return finalize(
      finish(ctx, AttackStatus::IterationLimit, filter.removed_edges(), kMaxAttackIterations));
}

}  // namespace

AttackResult run_attack(Algorithm algorithm, const ForcePathCutProblem& problem,
                        const AttackOptions& options) {
  require(problem.graph != nullptr, "run_attack: null graph");
  require(problem.weights.size() == problem.graph->num_edges(),
          "run_attack: weights size mismatch");
  require(problem.costs.size() == problem.graph->num_edges(), "run_attack: costs size mismatch");
  require(problem.protected_edges.empty() ||
              problem.protected_edges.size() == problem.graph->num_edges(),
          "run_attack: protected_edges size mismatch");
  require_valid_costs(problem, "run_attack");

  obs::ScopedPhase phase("attack");
  Stopwatch stopwatch;
  // The per-attack budget copy is what gets charged; a caller's all-zero
  // (unlimited) budget stays off the hot path as a null pointer.
  WorkBudget budget = options.work_budget;
  WorkBudget* budget_ptr = budget.limited() ? &budget : nullptr;
  AttackResult result;
  try {
    Context ctx(problem, budget_ptr, options.trace);
    switch (algorithm) {
      case Algorithm::GreedyEdge: result = run_greedy_edge(ctx); break;
      case Algorithm::GreedyEig: result = run_greedy_eig(ctx); break;
      case Algorithm::GreedyPathCover:
        result = run_path_cover(ctx, options.rng_seed, budget_ptr, false);
        break;
      case Algorithm::LpPathCover:
        result = run_path_cover(ctx, options.rng_seed, budget_ptr, true);
        break;
    }
  } catch (const BudgetExhausted&) {
    // Structured outcome, not an error: the deterministic caps ran out.
    // Injected faults (FaultInjected) deliberately propagate past here so
    // the harness quarantine handles them.
    result = AttackResult{};
    result.status = AttackStatus::BudgetExhausted;
  }
  result.seconds = stopwatch.reported();
  return result;
}

}  // namespace mts::attack
