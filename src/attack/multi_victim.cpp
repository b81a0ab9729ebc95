#include "attack/multi_victim.hpp"

#include "attack/path_cover.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"

namespace mts::attack {

ForcePathCutProblem MultiVictimProblem::victim_problem(std::size_t i) const {
  const Victim& victim = victims[i];
  ForcePathCutProblem problem;
  problem.graph = graph;
  problem.weights = weights;
  problem.costs = costs;
  problem.source = victim.source;
  problem.target = victim.target;
  problem.p_star = victim.p_star;
  problem.budget = budget;
  problem.seed_paths = victim.seed_paths;
  return problem;
}

MultiVictimResult run_multi_victim_attack(const MultiVictimProblem& problem) {
  require(problem.graph != nullptr, "multi_victim: null graph");
  require(problem.weights.size() == problem.graph->num_edges(),
          "multi_victim: weights size mismatch");
  require(problem.costs.size() == problem.graph->num_edges(),
          "multi_victim: costs size mismatch");
  require(!problem.victims.empty(), "multi_victim: no victims");
  require_valid_costs(problem.costs, "multi_victim");

  Stopwatch stopwatch;
  // One per-victim sub-problem and one oracle over each.  No victim's p*
  // may be cut, so the routes genuinely interact.
  std::vector<ForcePathCutProblem> sub_problems(problem.victims.size());
  std::vector<ExclusivityOracle> oracles;
  oracles.reserve(problem.victims.size());
  for (std::size_t i = 0; i < problem.victims.size(); ++i) {
    sub_problems[i] = problem.victim_problem(i);
    oracles.emplace_back(sub_problems[i]);
  }

  PathCoverResult run = run_path_cover(oracles, solve_covering_greedy);
  MultiVictimResult result{std::move(run.attack), std::move(run.victim_forced)};
  result.seconds = stopwatch.reported();
  return result;
}

}  // namespace mts::attack
