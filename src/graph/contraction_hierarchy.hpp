// Contraction Hierarchies (Geisberger et al. 2008) for directed graphs.
//
// The paper's threat model assumes victims use production navigation
// ("driving direction applications"), which answer point-to-point queries
// with hierarchical speedup techniques, not textbook Dijkstra.  This CH
// implementation is that substrate: one-time preprocessing contracts nodes
// in importance order, inserting shortcuts that preserve all shortest
// distances; queries run a bidirectional upward search and unpack
// shortcuts back to original edges.  Queries return exactly Dijkstra's
// distances (asserted extensively in tests) while settling far fewer
// nodes.
//
// Production serving (net::QueryEngine) runs queries through a reusable
// ChSearchSpace so the per-query cost is the search itself, not four
// num_nodes-sized allocations.  bounds_to_target() is the PHAST-style
// one-to-all pass (backward upward search + one linear downward sweep)
// that replaces a full reverse Dijkstra when a caller only needs exact
// distance bounds to a target — the daemon's kalt and attack rankings use
// it to goal-bound Yen's spur searches.
//
// Weights are fixed at build time: CH answers the *victim's* routing
// queries.  The attacker's questions (which mutate the graph) run on the
// filtered Dijkstra/Yen machinery (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/request_trace.hpp"
#include "graph/digraph.hpp"
#include "graph/path.hpp"
#include "graph/search_space.hpp"

namespace mts {

struct ChOptions {
  /// Witness-search limit: settle at most this many nodes per local
  /// search.  Larger = fewer redundant shortcuts, slower preprocessing.
  std::size_t witness_settle_limit = 60;
  /// Hop limit for witness searches (small values are standard).
  std::size_t witness_hop_limit = 16;
};

/// Reusable workspace for CH queries: the bidirectional distance/parent
/// labels (epoch-stamped, reset in O(1)), the shared heap, and the plain
/// one-to-all sweep array PHAST fills.  One per worker thread, never
/// shared — the same ownership contract as SearchSpace.
class ChSearchSpace {
 public:
  /// Starts a new query over `num_nodes` nodes.  Returns true when
  /// existing storage was reused (no allocation happened).
  bool begin(std::size_t num_nodes);

  [[nodiscard]] std::size_t size() const { return dist_f_.size(); }

 private:
  friend class ContractionHierarchy;
  friend class ChTableQuery;
  friend class CchMetric;

  struct Entry {
    double key;
    std::uint32_t node;
    bool forward;
  };

  [[nodiscard]] double dist(std::uint32_t n, bool forward) const {
    const auto& stamp = forward ? stamp_f_ : stamp_b_;
    if (stamp[n] != epoch_) return kInfiniteDistance;
    return forward ? dist_f_[n] : dist_b_[n];
  }
  void set(std::uint32_t n, bool forward, double dist, std::int64_t parent) {
    (forward ? stamp_f_ : stamp_b_)[n] = epoch_;
    (forward ? dist_f_ : dist_b_)[n] = dist;
    (forward ? parent_f_ : parent_b_)[n] = parent;
  }
  [[nodiscard]] std::int64_t parent(std::uint32_t n, bool forward) const {
    const auto& stamp = forward ? stamp_f_ : stamp_b_;
    if (stamp[n] != epoch_) return -1;
    return forward ? parent_f_[n] : parent_b_[n];
  }

  // Heap on a plain vector, min by (key, node, forward) so pop order — and
  // therefore which of several tied meet nodes wins — is a total order
  // independent of heap internals (same determinism contract as
  // SearchSpace).
  [[nodiscard]] bool heap_empty() const { return heap_.empty(); }
  void heap_push(double key, std::uint32_t node, bool forward);
  Entry heap_pop();
  static bool heap_later(const Entry& a, const Entry& b);

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_f_;
  std::vector<std::uint32_t> stamp_b_;
  std::vector<double> dist_f_;
  std::vector<double> dist_b_;
  std::vector<std::int64_t> parent_f_;  // indices into up_arcs_
  std::vector<std::int64_t> parent_b_;  // indices into down_arcs_
  std::vector<Entry> heap_;
  std::vector<double> sweep_;  // PHAST one-to-all labels (plain fill)
};

/// The calling thread's CH workspace (function-local thread_local, created
/// on first use).  Convenience for one-shot callers; serving loops hold
/// their own instance.
ChSearchSpace& thread_ch_search_space();

class ContractionHierarchy {
 public:
  /// Preprocesses `g` under non-negative `weights`.  The graph must be
  /// finalized; it is not retained — the CH is self-contained.
  static ContractionHierarchy build(const DiGraph& g, std::span<const double> weights,
                                    const ChOptions& options = {});

  struct QueryResult {
    std::optional<Path> path;  // original edge ids, shortcut-free
    double distance = 0.0;     // +inf when unreachable
    std::size_t nodes_settled = 0;
  };

  /// Exact point-to-point shortest path.  The workspace overloads reuse
  /// the caller's storage; the plain ones borrow the thread-local one.
  [[nodiscard]] QueryResult query(NodeId source, NodeId target) const;
  [[nodiscard]] QueryResult query(NodeId source, NodeId target, ChSearchSpace& ws,
                                  RequestTrace* trace = nullptr) const;

  /// Distance-only query (skips path unpacking).
  [[nodiscard]] double distance(NodeId source, NodeId target) const;
  [[nodiscard]] double distance(NodeId source, NodeId target, ChSearchSpace& ws,
                                RequestTrace* trace = nullptr) const;

  /// PHAST-style one-to-all: fills `out` with the exact distance from
  /// every node to `target` under the build weights (backward upward
  /// search, then one linear sweep over the up-arcs in descending head
  /// rank).  `out` carries distances only — parents stay invalid — which
  /// is exactly the shape DijkstraOptions::goal_bounds consumes.  Replaces
  /// a full reverse Dijkstra at O(arcs) with no heap on the sweep side.
  void bounds_to_target(NodeId target, ChSearchSpace& ws, SearchSpace& out,
                        RequestTrace* trace = nullptr) const;

  [[nodiscard]] std::size_t num_nodes() const { return rank_.size(); }
  [[nodiscard]] std::size_t num_shortcuts() const { return num_shortcuts_; }
  [[nodiscard]] std::uint32_t rank(NodeId n) const { return rank_[n.value()]; }
  [[nodiscard]] std::span<const std::uint32_t> ranks() const { return rank_; }

 private:
  friend class ChTableQuery;

  ContractionHierarchy() = default;

  /// Shortcut expansion record, indexed by pool arc id: an original edge
  /// (via < 0) or the concatenation of two earlier pool arcs.
  struct PoolRecord {
    std::int32_t via = -1;
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::uint32_t original_edge = 0;
  };

  /// One search-graph arc.  `base` is the node whose adjacency list it
  /// lives in; `other` the node the search relaxes to.  Real direction:
  /// base -> other in the upward graph, other -> base in the reversed
  /// downward graph.
  struct SearchArc {
    std::uint32_t base = 0;
    std::uint32_t other = 0;
    double weight = 0.0;
    std::uint32_t pool_id = 0;
  };

  /// One downward-sweep relaxation: travel arc tail -> head with
  /// rank[tail] < rank[head], stored in descending head-rank order so the
  /// PHAST sweep is a single forward pass (see bounds_to_target).
  struct SweepArc {
    std::uint32_t tail = 0;
    std::uint32_t head = 0;
    double weight = 0.0;
  };

  [[nodiscard]] QueryResult run_query(NodeId source, NodeId target, bool need_path,
                                      ChSearchSpace& ws, RequestTrace* trace) const;
  void unpack(std::uint32_t pool_id, std::vector<EdgeId>& out) const;

  std::vector<std::uint32_t> rank_;
  std::vector<PoolRecord> pool_;
  // Upward graph: arcs (u -> v), rank[u] < rank[v], CSR keyed by u.
  std::vector<SearchArc> up_arcs_;
  std::vector<std::uint32_t> up_offsets_;
  // Reversed downward graph: arcs (u -> v), rank[u] > rank[v], CSR keyed
  // by v (the backward search walks them head-to-tail).
  std::vector<SearchArc> down_arcs_;
  std::vector<std::uint32_t> down_offsets_;
  // The up-arcs again, flattened in descending head-rank order for the
  // PHAST downward sweep.
  std::vector<SweepArc> sweep_arcs_;
  std::size_t num_shortcuts_ = 0;
};

}  // namespace mts
