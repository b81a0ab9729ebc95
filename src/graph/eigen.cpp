#include "graph/eigen.hpp"

#include <cmath>

#include "core/error.hpp"

namespace mts {

constexpr std::size_t kMaxIterations = 200;
/// Convergence threshold on the mean per-node L1 change between iterates.
constexpr double kTolerance = 1e-10;
/// Uniform additive teleport ensuring convergence on reducible graphs.
constexpr double kDamping = 1e-3;

EigenResult eigenvector_centrality(const DiGraph& g) {
  require(g.finalized(), "eigenvector_centrality: graph not finalized");
  const std::size_t n = g.num_nodes();
  EigenResult result;
  result.centrality.assign(n, n > 0 ? 1.0 / std::sqrt(static_cast<double>(n)) : 0.0);
  if (n == 0) return result;

  std::vector<double> next(n, 0.0);
  double lambda = 0.0;
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // next = (A^T + I) x + damping * mean(x) * 1.  The +I shift keeps the
    // dominant eigenvalue unique on bipartite graphs (plain power iteration
    // would oscillate between the two sides); damping handles reducibility.
    double mean = 0.0;
    for (double v : result.centrality) mean += v;
    mean /= static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = kDamping * mean + result.centrality[i];
    }
    for (EdgeId e : g.edges()) {
      next[g.edge_to(e).value()] += result.centrality[g.edge_from(e).value()];
    }

    double norm = 0.0;
    for (double v : next) norm += v * v;
    norm = std::sqrt(norm);
    if (norm == 0.0) break;  // no edges at all

    // Rayleigh quotient lambda ~= x . (A^T x) before normalization.
    double rayleigh = 0.0;
    for (std::size_t i = 0; i < n; ++i) rayleigh += result.centrality[i] * next[i];

    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double normalized = next[i] / norm;
      diff += std::abs(normalized - result.centrality[i]);
      result.centrality[i] = normalized;
    }
    lambda = rayleigh - 1.0;  // undo the +I shift
    result.iterations = iter + 1;
    if (diff < kTolerance * static_cast<double>(n)) {
      result.converged = true;
      break;
    }
  }
  result.eigenvalue = lambda;
  return result;
}

std::vector<double> edge_eigen_scores(const DiGraph& g, const EigenResult& result) {
  std::vector<double> scores(g.num_edges(), 0.0);
  for (EdgeId e : g.edges()) {
    scores[e.value()] =
        result.centrality[g.edge_from(e).value()] * result.centrality[g.edge_to(e).value()];
  }
  return scores;
}

}  // namespace mts
