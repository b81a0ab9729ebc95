// Exclusivity oracle: "is p* the exclusive shortest path yet, and if not,
// which path still beats it?"
//
// All four attack algorithms are driven by this constraint-generation
// query.  A violating path is any simple s→d path different from p* whose
// length is <= len(p*) (within floating tolerance).  Ties are certified
// with an exact second-shortest-path search rather than assumed away.
#pragma once

#include <memory>
#include <optional>

#include "attack/problem.hpp"
#include "core/budget.hpp"
#include "core/request_trace.hpp"
#include "graph/cch.hpp"
#include "graph/edge_filter.hpp"
#include "graph/search_space.hpp"

namespace mts::attack {

using mts::EdgeFilter;

class ExclusivityOracle {
 public:
  /// `problem` must outlive the oracle (as must `budget` and `trace` when
  /// non-null).  Throws PreconditionViolation if p* is not a simple s→d
  /// path or touches a non-positive-length check.  `budget` caps the
  /// deterministic work of every query this oracle runs (core/budget.hpp;
  /// nullptr = unlimited); `trace` receives per-request work accounting
  /// for the same queries (core/request_trace.hpp; nullptr = none).
  explicit ExclusivityOracle(const ForcePathCutProblem& problem, WorkBudget* budget = nullptr,
                             RequestTrace* trace = nullptr);

  /// A path that still violates p*'s exclusivity under `filter`, or
  /// nullopt when p* is certified exclusively shortest.
  [[nodiscard]] std::optional<Path> find_violating_path(const EdgeFilter& filter) const;

  [[nodiscard]] std::size_t calls() const { return calls_; }
  [[nodiscard]] double p_star_length() const { return p_star_length_; }

  /// Tolerance at which two path lengths are considered tied.
  [[nodiscard]] double tie_epsilon() const;

 private:
  const ForcePathCutProblem& problem_;
  double p_star_length_;
  /// Exact reverse shortest-path distances to the target under the
  /// *unfiltered* weights, built once per problem.  Removing edges only
  /// lengthens paths, so these distances lower-bound the remaining
  /// distance under every filter the oracle will ever see — an admissible
  /// goal-direction heuristic for all queries (DESIGN.md §9).  Filled by
  /// one full reverse Dijkstra.
  SearchSpace reverse_tree_;
  /// Masked-metric machinery for tie certifications when the problem
  /// carries ChAssets, lazily created on the first tie (most problems
  /// never hit one).  Mutable like calls_: the oracle is logically const
  /// but single-threaded by contract.
  mutable std::unique_ptr<CchMetric> cch_;
  mutable SearchSpace cch_bounds_;
  WorkBudget* budget_ = nullptr;
  RequestTrace* trace_ = nullptr;
  mutable std::size_t calls_ = 0;
};

}  // namespace mts::attack
