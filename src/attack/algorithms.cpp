#include "attack/algorithms.hpp"

#include "attack/path_cover.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "graph/eigen.hpp"
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

const char* algorithm_token(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::LpPathCover: return "lp-pathcover";
    case Algorithm::GreedyPathCover: return "greedy-pathcover";
    case Algorithm::GreedyEdge: return "greedy-edge";
    case Algorithm::GreedyEig: return "greedy-eig";
  }
  return "?";
}

Algorithm parse_algorithm(std::string_view token) {
  for (const Algorithm algorithm : kAllAlgorithms) {
    if (token == algorithm_token(algorithm)) return algorithm;
  }
  throw InvalidInput("unknown algorithm '" + std::string(token) +
                     "' (lp-pathcover|greedy-pathcover|greedy-edge|greedy-eig)");
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

// ---- GreedyEdge / GreedyEig ------------------------------------------------

/// Iteratively removes one scored edge from each violating path.
/// `better(a, b)` returns true when edge a is preferable to edge b.
template <typename Better>
AttackResult run_iterative(const ExclusivityOracle& oracle, Better better) {
  const ForcePathCutProblem& problem = oracle.problem();
  const std::vector<std::uint8_t> unremovable = unremovable_edges({&oracle, 1});
  EdgeFilter filter(problem.graph->num_edges());
  std::vector<EdgeId> removed;
  double removed_cost = 0.0;
  const auto finish = [&](AttackStatus status, std::size_t iterations) {
    AttackResult result =
        close_attack(status, std::move(removed), iterations, problem.costs, problem.budget);
    result.oracle_calls = oracle.calls();
    return result;
  };

  for (std::size_t iter = 0; iter < kMaxAttackIterations; ++iter) {
    const auto violating = oracle.find_violating_path(filter);
    if (!violating) return finish(AttackStatus::Success, iter);

    EdgeId choice = EdgeId::invalid();
    for (EdgeId e : violating->edges) {
      if (unremovable[e.value()]) continue;
      if (!choice.valid() || better(e, choice)) choice = e;
    }
    // A violating path always has an edge outside p*, but a defender may
    // have protected all of them — then p* simply cannot be forced.
    if (!choice.valid()) return finish(AttackStatus::Infeasible, iter);

    filter.remove(choice);
    removed.push_back(choice);
    removed_cost += problem.costs[choice.value()];
    if (removed_cost > problem.budget) return finish(AttackStatus::BudgetExceeded, iter + 1);
  }
  return finish(AttackStatus::IterationLimit, kMaxAttackIterations);
}

AttackResult run_greedy_edge(const ExclusivityOracle& oracle) {
  // Paper: "cuts the shortest road segment, not in p*, on the current
  // shortest route".
  const std::span<const double> weights = oracle.problem().weights;
  return run_iterative(oracle, [weights](EdgeId a, EdgeId b) {
    return weights[a.value()] < weights[b.value()];
  });
}

AttackResult run_greedy_eig(const ExclusivityOracle& oracle) {
  // Eigen-scores come from the pristine graph: the attacker's topological
  // pre-analysis (recomputing per removal would change no ranking in
  // practice but cost a power iteration per cut).
  const ForcePathCutProblem& problem = oracle.problem();
  const auto eig = eigenvector_centrality(*problem.graph);
  const auto scores = edge_eigen_scores(*problem.graph, eig);
  return run_iterative(oracle, [&problem, &scores](EdgeId a, EdgeId b) {
    const double ra = scores[a.value()] / problem.costs[a.value()];
    const double rb = scores[b.value()] / problem.costs[b.value()];
    return ra > rb;
  });
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
  require_valid_costs(problem.costs, "run_attack");

  obs::ScopedPhase phase("attack");
  Stopwatch stopwatch;
  AttackResult result;
  try {
    const ExclusivityOracle oracle(problem, options.budget);
    switch (algorithm) {
      case Algorithm::GreedyEdge: result = run_greedy_edge(oracle); break;
      case Algorithm::GreedyEig: result = run_greedy_eig(oracle); break;
      case Algorithm::GreedyPathCover:
        result = run_path_cover({&oracle, 1}, solve_covering_greedy).attack;
        break;
      case Algorithm::LpPathCover: {
        Rng rng(options.rng_seed);
        const auto solve = [&](const CoveringProblem& covering) {
          return solve_covering_lp(covering, rng, options.budget);
        };
        result = run_path_cover({&oracle, 1}, solve).attack;
        break;
      }
    }
    static const obs::CounterId kRuns = obs::MetricsRegistry::instance().counter("attack.runs");
    static const obs::CounterId kRounds =
        obs::MetricsRegistry::instance().counter("attack.rounds");
    static const obs::CounterId kOracleCalls =
        obs::MetricsRegistry::instance().counter("attack.oracle_calls");
    static const obs::CounterId kEdgesRemoved =
        obs::MetricsRegistry::instance().counter("attack.edges_removed");
    obs::add(kRuns);
    obs::add(kRounds, result.iterations);
    obs::add(kOracleCalls, result.oracle_calls);
    obs::add(kEdgesRemoved, result.removed_edges.size());
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
