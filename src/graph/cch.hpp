// Customizable Contraction Hierarchies (Dibbelt/Strasser/Wagner 2014),
// specialized to EdgeFilter masks.
//
// A witness-pruned CH (contraction_hierarchy.hpp) is only correct for the
// weights it was built with: its witness searches discarded shortcuts
// another metric would need.  The attack loops, however, re-ask the same
// question — "what is the s->t distance with THESE edges removed?" — for
// thousands of candidate cuts.  CCH splits preprocessing in two:
//
//   1. CchTopology (metric-independent, built once per graph): run the
//      elimination game over the CH's fixed contraction order with NO
//      witness pruning, recording for every arc the original parallel
//      edges mapping onto it and every lower triangle {(u,v),(v,w)} that
//      can compose into it.  Arcs are stored in customization order —
//      ascending rank of the lower endpoint — so every triangle's children
//      strictly precede its parent.
//
//   2. CchMetric (cheap, per weight vector): customization assigns each
//      arc min(surviving original edges, min over lower triangles of
//      left + right), in one linear pass.  recustomize(filter) diffs the
//      mask against the previous one, marks the arcs of changed edges
//      dirty, and re-relaxes only dirty arcs (propagating to triangle
//      parents) — O(shortcuts) per cut instead of a full rebuild or a
//      full Dijkstra.  Removing every parallel edge of an arc drives it
//      to +inf, which the searches skip naturally.
//
// The one query is the PHAST-style one-to-all bounds_to_target, the
// masked twin of the CH's, used to goal-bound the oracle's tie
// certification searches under the candidate mask.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/budget.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/digraph.hpp"
#include "graph/edge_filter.hpp"
#include "graph/search_space.hpp"

namespace mts {

class CchTopology {
 public:
  /// Runs the elimination game over `g` with the fixed contraction order
  /// `rank` (one rank per node, a permutation — use the CH's ranks so the
  /// two hierarchies agree).  The graph is not retained.
  static CchTopology build(const DiGraph& g, std::span<const std::uint32_t> rank);

  [[nodiscard]] std::size_t num_nodes() const { return rank_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edge_arc_.size(); }
  [[nodiscard]] std::size_t num_arcs() const { return arc_from_.size(); }

  static constexpr std::uint32_t kInvalidArc = 0xffffffffU;

 private:
  friend class CchMetric;

  CchTopology() = default;

  std::vector<std::uint32_t> rank_;
  // Arcs in customization order (ascending lower-endpoint rank; children
  // of every triangle precede their parent).
  std::vector<std::uint32_t> arc_from_;
  std::vector<std::uint32_t> arc_to_;
  // Original parallel edges per arc (CSR over arcs).
  std::vector<std::uint32_t> edge_offsets_;
  std::vector<EdgeId> edge_ids_;
  // Lower triangles per arc (CSR over arcs): value candidates
  // arc_weight[left] + arc_weight[right].
  std::vector<std::uint32_t> tri_offsets_;
  std::vector<std::uint32_t> tri_left_;
  std::vector<std::uint32_t> tri_right_;
  // Reverse dependency (CSR over arcs): the parents whose triangles
  // contain this arc — the propagation frontier of re-customization.
  std::vector<std::uint32_t> parent_offsets_;
  std::vector<std::uint32_t> parent_arcs_;
  // Original edge -> covering arc (kInvalidArc for self loops).
  std::vector<std::uint32_t> edge_arc_;
  // Backward-search CSR: arcs tail->head with rank[tail] > rank[head],
  // keyed by head.  Entries are arc ids.
  std::vector<std::uint32_t> up_in_offsets_;
  std::vector<std::uint32_t> up_in_arcs_;
  // PHAST sweep: the arcs tail->head with rank[head] > rank[tail], sorted
  // by descending head rank (see ContractionHierarchy::bounds_to_target).
  std::vector<std::uint32_t> sweep_arcs_;
};

/// One customized metric over a CchTopology.  Owns the arc weights and
/// the mask state; borrows the topology and the edge-weight span (both
/// must outlive it).  Not thread-safe — one instance per worker, like
/// SearchSpace.
class CchMetric {
 public:
  /// Customizes against `weights` with no edges removed.  `weights` must
  /// be the same length (and meaning) as the edge weights the topology's
  /// graph was built over.
  CchMetric(const CchTopology& topology, std::span<const double> weights);

  /// Re-customizes against `filter` (nullptr = nothing removed): diffs
  /// the mask against the previous call and recomputes only affected
  /// arcs.  Counted as ch.recustomizations.
  void recustomize(const EdgeFilter* filter);

  /// Exact one-to-all distances to `target` under the current mask,
  /// published into `out` as a bounds-only SearchSpace (no parents) —
  /// the masked twin of ContractionHierarchy::bounds_to_target, charging
  /// `budget` (nullptr = uncapped and uncounted) the same way.
  void bounds_to_target(NodeId target, SearchSpace& out, WorkBudget* budget = nullptr);

 private:
  /// min(surviving parallel edges, lower-triangle compositions) for `a`.
  [[nodiscard]] double arc_value(std::uint32_t a) const;

  const CchTopology* topo_;
  std::span<const double> weights_;
  std::vector<double> arc_weight_;
  std::vector<std::uint8_t> removed_;  // current mask, per original edge
  std::vector<std::uint8_t> dirty_;    // per arc, scratch for recustomize
  ChSearchSpace ws_;
};

}  // namespace mts
