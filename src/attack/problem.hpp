// The Force Path Cut problem on directed graphs (paper §II-B).
//
// Given graph G, weights w, removal costs c, endpoints (s, d), a chosen
// alternative path p*, and a budget b, find E' ⊆ E with Σc(e) ≤ b such
// that p* is the *exclusive* shortest s→d path in G \ E'.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/path.hpp"

namespace mts {
struct ChAssets;  // graph/ch_assets.hpp
}

namespace mts::attack {

using mts::DiGraph;
using mts::EdgeId;
using mts::NodeId;
using mts::Path;

/// Thread-sharing contract: a const ForcePathCutProblem may be shared by
/// concurrent run_attack / verify_attack calls.  Every consumer takes it by
/// const reference and only reads; the referenced graph and the
/// weights/costs spans must stay immutable for the problem's lifetime.
/// (The parallel experiment harness relies on this — see exp/table_runner.)
struct ForcePathCutProblem {
  const DiGraph* graph = nullptr;
  std::span<const double> weights;  // victim's path metric
  std::span<const double> costs;    // attacker's removal costs
  NodeId source;
  NodeId target;
  Path p_star;
  double budget = std::numeric_limits<double>::infinity();
  /// Already-known paths shorter than p* (e.g. ranks 1..k-1 from the Yen
  /// run that selected p* as the k-th path).  PathCover algorithms use
  /// them as free initial set-cover constraints.
  std::vector<Path> seed_paths;
  /// Optional per-edge protection mask (size num_edges or empty): edges
  /// marked 1 can never be removed — e.g. roads hardened by a defender
  /// (see attack/defense.hpp).  If every cut must include a protected
  /// edge, the attack reports Infeasible.
  std::vector<std::uint8_t> protected_edges;
  /// Optional CH/CCH bundle for the oracle's tie certifications (nullptr =
  /// certify each tie with a full reverse Dijkstra; same verdicts either
  /// way).  Nothing else reads it: the verifier always runs plain
  /// Dijkstra.  MUST have been built from this problem's graph and
  /// weights — the oracle trusts it for exact masked distances.  Shared
  /// read-only like the graph (the oracle keeps its own CchMetric), so the
  /// same pointer is safe across the parallel harness's workers.
  const ChAssets* ch = nullptr;
};

enum class AttackStatus {
  Success,         // p* certified exclusively shortest after removals
  BudgetExceeded,  // a forcing cut exists but costs more than the budget
  Infeasible,      // p* cannot be forced (shares a cheaper tied twin)
  IterationLimit,  // gave up; partial removals reported
  BudgetExhausted, // deterministic work budget ran out (core/budget.hpp)
};

const char* to_string(AttackStatus status);

struct AttackResult {
  AttackStatus status = AttackStatus::IterationLimit;
  std::vector<EdgeId> removed_edges;
  double total_cost = 0.0;
  std::size_t oracle_calls = 0;
  std::size_t iterations = 0;
  double lp_lower_bound = 0.0;  // LP-PathCover only: certified lower bound
  double seconds = 0.0;
  /// True when the covering LP failed and the greedy cover was substituted
  /// at any iteration (LP-PathCover only); the result is still a valid cut
  /// but lp_lower_bound may be weaker.  See DESIGN.md §10.
  bool fallback_used = false;
  /// Why the fallback engaged, when it did ("lp iteration-limit ...").
  std::string fallback_reason;

  [[nodiscard]] std::size_t num_removed() const { return removed_edges.size(); }
};

}  // namespace mts::attack
