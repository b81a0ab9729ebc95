// Eigenvector centrality by power iteration.
//
// GreedyEig scores a candidate road segment by its eigenvector-centrality
// contribution divided by its removal cost (paper §III-A, algorithm 4).
// For a directed edge u -> v the natural edge score is x_u * x_v where x is
// the dominant eigenvector of the adjacency matrix: removing the
// edge reduces the dominant eigenvalue by approximately x_u * x_v under the
// standard first-order perturbation argument.
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace mts {

struct EigenResult {
  std::vector<double> centrality;  // per node, L2-normalized, non-negative
  double eigenvalue = 0.0;         // Rayleigh estimate of the dominant eigenvalue
  std::size_t iterations = 0;
  bool converged = false;
};

/// Dominant-eigenvector node centrality of the adjacency matrix (a node is
/// central if many central nodes point to it).
EigenResult eigenvector_centrality(const DiGraph& g);

/// Per-edge eigen-scores x_from * x_to derived from node centrality.
std::vector<double> edge_eigen_scores(const DiGraph& g, const EigenResult& result);

}  // namespace mts
