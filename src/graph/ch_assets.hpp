// The CH + CCH bundle the experiment harness builds per table column.
//
// The CchTopology eliminates over the ContractionHierarchy's contraction
// order, so the two are built together from one (graph, weights).  Its
// one consumer is the attack oracle's tie certification: a CchMetric
// re-customized to the candidate cut goal-bounds the second-shortest-path
// search (attack/oracle.cpp).  Every other distance question has a single
// engine that needs no bundle: the daemon owns bare CHs (net::Snapshot),
// and the oracle's unmasked bounds and the verifier run plain Dijkstra.
//
// ChAssets is immutable after build and shared read-only across worker
// threads; per-worker mutable state (CchMetric) lives with the oracle.  A
// ForcePathCutProblem carrying a ChAssets pointer must point at assets
// built from its own graph+weights (checked by size, enforced by
// contract).
#pragma once

#include <span>

#include "graph/cch.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/digraph.hpp"

namespace mts {

struct ChAssets {
  ContractionHierarchy ch;
  CchTopology cch;

  static ChAssets build(const DiGraph& g, std::span<const double> weights);
};

/// The MTS_CH knob: whether exp::run_city_table_on builds ChAssets, so
/// that the oracle certifies ties on the CCH (1, the default) or with a
/// full reverse Dijkstra per tie (0).  Unset or empty means 1; any value
/// other than 0 or 1 throws InvalidInput naming it.  Read per call, not
/// cached, so tests can flip it.
[[nodiscard]] bool ch_enabled();

}  // namespace mts
