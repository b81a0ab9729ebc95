// The immutable city snapshot a routed daemon serves from.
//
// This is the OSRM process-shape split the ROADMAP calls for: ALL graph
// bytes — network, weight vectors, cost vectors — are loaded once, owned
// here, and only ever read afterwards.  Per-request state (search
// workspaces, scratch heaps, budgets) lives in net::QueryEngine, one
// instance per worker, so N workers share zero mutable graph bytes.
//
// Thread-sharing contract: after load() returns, a const Snapshot may be
// read concurrently from any number of threads for its whole lifetime
// (the same contract attack::ForcePathCutProblem documents for its graph
// and spans).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/models.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "osm/road_network.hpp"

namespace mts::net {

class Snapshot {
 public:
  /// Builds from an already-constructed network (tests, in-process use)
  /// and precomputes every per-edge vector a query can ask for.
  explicit Snapshot(osm::RoadNetwork network);

  /// Loads an OSM XML file.  Throws InvalidInput on unreadable or
  /// roadless input.
  static Snapshot load(const std::string& osm_path);

  [[nodiscard]] const osm::RoadNetwork& network() const { return network_; }
  [[nodiscard]] const DiGraph& graph() const { return network_.graph(); }

  /// Per-edge weight vector for a protocol weight kind.
  [[nodiscard]] const std::vector<double>& weights(bool time) const {
    return time ? time_weights_ : length_weights_;
  }
  /// Attack removal costs (uniform: 1 per directed segment).
  [[nodiscard]] const std::vector<double>& uniform_costs() const { return uniform_costs_; }

  /// Contraction hierarchy for a weight kind, built once at load and
  /// shared read-only by every worker's QueryEngine (per-request search
  /// workspaces live engine-side; DESIGN.md §14).
  [[nodiscard]] const ContractionHierarchy& ch(bool time) const {
    return time ? time_ch_ : length_ch_;
  }

  [[nodiscard]] std::size_t num_nodes() const { return network_.graph().num_nodes(); }
  [[nodiscard]] std::size_t num_edges() const { return network_.graph().num_edges(); }
  [[nodiscard]] std::size_t num_pois() const { return network_.pois().size(); }

 private:
  osm::RoadNetwork network_;
  std::vector<double> time_weights_;
  std::vector<double> length_weights_;
  std::vector<double> uniform_costs_;
  ContractionHierarchy time_ch_;
  ContractionHierarchy length_ch_;
};

}  // namespace mts::net
