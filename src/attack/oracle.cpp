#include "attack/oracle.hpp"

#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/fault.hpp"
#include "graph/ch_assets.hpp"
#include "graph/dijkstra.hpp"
#include "graph/yen.hpp"
#include "obs/phase.hpp"

namespace mts::attack {

namespace {

struct OracleCounters {
  obs::CounterId calls;
  obs::CounterId violations;
  obs::CounterId ties;
  obs::CounterId exclusive;

  static const OracleCounters& get() {
    static const OracleCounters counters{
        obs::MetricsRegistry::instance().counter("oracle.calls"),
        obs::MetricsRegistry::instance().counter("oracle.violations"),
        obs::MetricsRegistry::instance().counter("oracle.tie_certifications"),
        obs::MetricsRegistry::instance().counter("oracle.exclusive"),
    };
    return counters;
  }
};

}  // namespace

ExclusivityOracle::ExclusivityOracle(const ForcePathCutProblem& problem, WorkBudget* budget,
                                     RequestTrace* trace)
    : problem_(problem), budget_(budget), trace_(trace) {
  require(problem.graph != nullptr, "oracle: null graph");
  require(is_simple_path(*problem.graph, problem.p_star, problem.source, problem.target),
          "oracle: p* is not a simple source->target path");
  require(!problem.p_star.empty(), "oracle: p* is empty");
  p_star_length_ = path_length(problem_.p_star.edges, problem_.weights);
  validate_weights(*problem.graph, problem_.weights, "oracle");
  if (problem.ch != nullptr) {
    // The CCH serves tie certifications only.  The assets must belong to
    // this problem's graph+weights (build contract, graph/ch_assets.hpp);
    // size mismatches are the detectable violations.
    require(problem.ch->cch.num_nodes() == problem.graph->num_nodes() &&
                problem.ch->cch.num_edges() == problem.graph->num_edges(),
            "oracle: ChAssets do not match the problem graph");
  }
  DijkstraOptions reverse_options;
  reverse_options.assume_valid_weights = true;
  reverse_options.budget = budget_;
  reverse_options.trace = trace_;
  reverse_dijkstra(reverse_tree_, *problem.graph, problem_.weights, problem_.target,
                   reverse_options);
}

double ExclusivityOracle::tie_epsilon() const {
  return 1e-9 * (1.0 + std::abs(p_star_length_));
}

std::optional<Path> ExclusivityOracle::find_violating_path(const EdgeFilter& filter) const {
  ++calls_;
  if (trace_ != nullptr) ++trace_->oracle_calls;
  obs::ScopedPhase phase("oracle");
  obs::add(OracleCounters::get().calls);
  const auto& g = *problem_.graph;
  const double eps = tie_epsilon();

  // Nan corrupts the query's result below (caught by the consistency
  // require); Limit has no native emulation here and escalates to Throw.
  const fault::Action injected = MTS_FAULT_ACTION("oracle.solve");
  if (injected == fault::Action::Throw || injected == fault::Action::Limit) {
    fault::throw_injected("oracle.solve", injected);
  }

  // Goal-directed query: reverse_tree_'s unfiltered distances stay
  // admissible under any filter, and no violating path is ever longer than
  // p* itself, so p*'s length is an exact prune bound.  p*'s own nodes all
  // satisfy the bound, so the reachability require below is unaffected.
  DijkstraOptions options;
  options.target = problem_.target;
  options.filter = &filter;
  options.goal_bounds = &reverse_tree_;
  options.prune_bound = p_star_length_;
  options.assume_valid_weights = true;
  options.budget = budget_;
  options.trace = trace_;
  SearchSpace& ws = thread_search_space();
  dijkstra(ws, g, problem_.weights, problem_.source, options);
  auto sp = extract_path(g, ws, problem_.source, problem_.target);
  // p*'s own edges are never removed by the algorithms, so s→d stays
  // connected; a missing path means the caller removed part of p*.
  require(sp.has_value(), "oracle: source cannot reach target (p* was damaged)");
  if (injected == fault::Action::Nan) {
    // Models a poisoned weight vector reaching the solve: the consistency
    // require below turns it into a quarantinable PreconditionViolation.
    sp->length = std::numeric_limits<double>::quiet_NaN();
  }
  require(sp->length <= p_star_length_ + eps,
          "oracle: shortest path longer than p* (inconsistent weights)");

  if (sp->length < p_star_length_ - eps) {
    obs::add(OracleCounters::get().violations);
    return sp;  // strictly better path
  }

  // Tied region: the shortest path length equals len(p*).
  if (!(sp->edges == problem_.p_star.edges)) {
    obs::add(OracleCounters::get().violations);
    return sp;  // tied but different
  }

  // Dijkstra returned p* itself; certify no *other* path ties it.  The
  // certification's reverse bounds must hold under THIS filter, so
  // reverse_tree_ cannot serve them.  With ChAssets the CCH re-customizes
  // to the mask and its masked PHAST replaces the full reverse Dijkstra
  // the plain call would run.  The certified path is identical either way
  // (YenOptions::reverse_bounds).
  obs::add(OracleCounters::get().ties);
  const SearchSpace* certification_bounds = nullptr;
  if (problem_.ch != nullptr) {
    if (cch_ == nullptr) {
      cch_ = std::make_unique<CchMetric>(problem_.ch->cch, problem_.weights);
    }
    cch_->recustomize(&filter);
    cch_->bounds_to_target(problem_.target, cch_bounds_, trace_);
    certification_bounds = &cch_bounds_;
  }
  auto second = second_shortest_path(g, problem_.weights, problem_.source, problem_.target,
                                     problem_.p_star, &filter, budget_, trace_,
                                     certification_bounds);
  if (second && second->length <= p_star_length_ + eps) {
    obs::add(OracleCounters::get().violations);
    return second;
  }
  obs::add(OracleCounters::get().exclusive);
  return std::nullopt;
}

}  // namespace mts::attack
