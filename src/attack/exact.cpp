#include "attack/exact.hpp"

#include "attack/path_cover.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"

namespace mts::attack {

ExactAttackResult run_exact_attack(const ForcePathCutProblem& problem) {
  require(problem.graph != nullptr, "exact attack: null graph");
  require(problem.weights.size() == problem.graph->num_edges(),
          "exact attack: weights size mismatch");
  require(problem.costs.size() == problem.graph->num_edges(),
          "exact attack: costs size mismatch");
  require_valid_costs(problem.costs, "exact attack");
  require(problem.protected_edges.empty() ||
              problem.protected_edges.size() == problem.graph->num_edges(),
          "exact attack: protected_edges size mismatch");

  Stopwatch stopwatch;
  const ExclusivityOracle oracle(problem);
  PathCoverResult run = run_path_cover({&oracle, 1}, solve_covering_exact);
  ExactAttackResult result{std::move(run.attack), run.proven_optimal};
  result.seconds = stopwatch.reported();
  return result;
}

}  // namespace mts::attack
