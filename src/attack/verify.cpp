#include "attack/verify.hpp"

#include "graph/dijkstra.hpp"
#include "graph/edge_filter.hpp"
#include "graph/shortest_path_count.hpp"
#include "obs/phase.hpp"

namespace mts::attack {

namespace {

/// Counts every verification plus its outcome.
VerifyReport finish(VerifyReport report) {
  static const obs::CounterId kChecks = obs::MetricsRegistry::instance().counter("verify.checks");
  static const obs::CounterId kRejections =
      obs::MetricsRegistry::instance().counter("verify.rejections");
  obs::add(kChecks);
  if (!report.ok) obs::add(kRejections);
  return report;
}

}  // namespace

VerifyReport verify_attack(const ForcePathCutProblem& problem,
                           const std::vector<EdgeId>& removed_edges) {
  obs::ScopedPhase phase("verify");
  const auto& g = *problem.graph;

  if (!is_simple_path(g, problem.p_star, problem.source, problem.target)) {
    return finish({false, "p* is not a simple source->target path"});
  }

  EdgeFilter filter(g.num_edges());
  for (EdgeId e : removed_edges) filter.remove(e);
  for (EdgeId e : problem.p_star.edges) {
    if (filter.is_removed(e)) {
      return finish({false, "removed edge " + std::to_string(e.value()) + " lies on p*"});
    }
  }

  // No separate distance check: p* survives the cut, so the masked
  // distance is at most len(p*), and a strictly shorter path fails either
  // the count or the path identity check below.
  const auto count = count_shortest_paths(g, problem.weights, problem.source, problem.target,
                                          &filter);
  if (count != 1) {
    return finish(
        {false, "p* is not exclusive: " + std::to_string(count) + " tied shortest paths"});
  }

  // The unique shortest path must be p* itself.
  const auto sp = shortest_path(g, problem.weights, problem.source, problem.target, &filter);
  if (!sp || !(sp->edges == problem.p_star.edges)) {
    return finish({false, "the unique shortest path is not p*"});
  }
  return finish({true, ""});
}

}  // namespace mts::attack
