// Directed graph with planar node coordinates.
//
// The street network is a directed multigraph: intersections are nodes with
// (x, y) positions in meters (local projection), road segments are directed
// edges.  Construction is two-phase: add nodes/edges, then finalize() builds
// compact CSR adjacency (both out- and in-) for traversal.  Edge attributes
// (length, speed, lanes, ...) live in parallel arrays owned by higher layers
// (see osm::RoadNetwork), keeping this class a pure topology container.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/strong_id.hpp"

namespace mts {

class DiGraph {
 public:
  DiGraph() = default;

  /// Creates a node at (x, y) meters; returns its dense id.
  NodeId add_node(double x = 0.0, double y = 0.0);

  /// Creates a directed edge u -> v; returns its dense id.  Parallel edges
  /// and self-loops are permitted (OSM produces both).
  EdgeId add_edge(NodeId u, NodeId v);

  /// Builds CSR adjacency.  Must be called after the last add_*; adding
  /// more elements afterwards resets the graph to un-finalized.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  [[nodiscard]] std::size_t num_nodes() const { return xs_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return heads_.size(); }

  [[nodiscard]] IdRange<NodeId> nodes() const {
    return {0, static_cast<std::uint32_t>(num_nodes())};
  }
  [[nodiscard]] IdRange<EdgeId> edges() const {
    return {0, static_cast<std::uint32_t>(num_edges())};
  }

  [[nodiscard]] NodeId edge_from(EdgeId e) const { return tails_[e.value()]; }
  [[nodiscard]] NodeId edge_to(EdgeId e) const { return heads_[e.value()]; }

  [[nodiscard]] double x(NodeId n) const { return xs_[n.value()]; }
  [[nodiscard]] double y(NodeId n) const { return ys_[n.value()]; }
  void set_position(NodeId n, double x, double y);

  /// Outgoing edge ids of `n`.  Requires finalized().
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId n) const;
  /// Incoming edge ids of `n`.  Requires finalized().
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId n) const;

  [[nodiscard]] std::size_t out_degree(NodeId n) const { return out_edges(n).size(); }
  [[nodiscard]] std::size_t in_degree(NodeId n) const { return in_edges(n).size(); }

  /// Average of (in-degree + out-degree) over nodes, i.e. 2|E|/|V| — the
  /// quantity the paper's Table I calls "Avg. Node Degree".
  [[nodiscard]] double average_degree() const;

  /// Euclidean distance between two nodes' positions, meters.
  [[nodiscard]] double node_distance(NodeId a, NodeId b) const;

  /// Validates structural invariants: parallel arrays sized consistently,
  /// endpoints in range, coordinates finite, and (when finalized) CSR
  /// offsets monotone with every edge appearing exactly once in its tail's
  /// out-bucket and its head's in-bucket.  Throws InvariantViolation on the
  /// first violation.  Cheap enough for tests; hot paths invoke it through
  /// MTS_DCHECK_INVARIANTS so release builds pay nothing.
  void check_invariants() const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<NodeId> tails_;
  std::vector<NodeId> heads_;

  // CSR adjacency: edge ids grouped by tail (out) / head (in).
  std::vector<std::uint32_t> out_offsets_;
  std::vector<EdgeId> out_edge_ids_;
  std::vector<std::uint32_t> in_offsets_;
  std::vector<EdgeId> in_edge_ids_;
  bool finalized_ = false;
};

}  // namespace mts
