#include "graph/metrics.hpp"

#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace mts {

/// Bearing bins over the folded [0, 90) range: 5 degrees each.
constexpr std::size_t kBearingBins = 18;

double orientation_order(const std::vector<double>& bearings_deg) {
  if (bearings_deg.empty()) return 0.0;

  std::vector<double> histogram(kBearingBins, 0.0);
  for (double bearing : bearings_deg) {
    double folded = std::fmod(bearing, 90.0);
    if (folded < 0.0) folded += 90.0;
    const double scaled = folded / 90.0 * static_cast<double>(kBearingBins);
    const auto bin = std::min(kBearingBins - 1, static_cast<std::size_t>(scaled));
    histogram[bin] += 1.0;
  }

  const double total = static_cast<double>(bearings_deg.size());
  double entropy = 0.0;
  for (double count : histogram) {
    if (count <= 0.0) continue;
    const double p = count / total;
    entropy -= p * std::log(p);
  }
  // Perfect grid: all mass in one bin -> entropy 0 -> order 1.
  // Uniform bearings: entropy log(bins) -> order 0.
  const double max_entropy = std::log(static_cast<double>(kBearingBins));
  return 1.0 - entropy / max_entropy;
}

NetworkMetrics compute_network_metrics(const DiGraph& g) {
  require(g.finalized(), "compute_network_metrics: graph not finalized");
  NetworkMetrics metrics;
  metrics.num_nodes = g.num_nodes();
  metrics.num_edges = g.num_edges();
  metrics.average_degree = g.average_degree();

  std::vector<double> bearings;
  bearings.reserve(g.num_edges());
  double total_length = 0.0;
  for (EdgeId e : g.edges()) {
    const NodeId u = g.edge_from(e);
    const NodeId v = g.edge_to(e);
    const double dx = g.x(v) - g.x(u);
    const double dy = g.y(v) - g.y(u);
    const double len = std::sqrt(dx * dx + dy * dy);
    total_length += len;
    if (len > 1e-9) {
      bearings.push_back(std::atan2(dy, dx) * 180.0 / std::numbers::pi);
    }
  }
  metrics.mean_segment_length =
      g.num_edges() > 0 ? total_length / static_cast<double>(g.num_edges()) : 0.0;

  metrics.orientation_order = orientation_order(bearings);
  // Entropy in nats for reference (same fold/binning as the order score).
  metrics.orientation_entropy =
      (1.0 - metrics.orientation_order) * std::log(static_cast<double>(kBearingBins));

  std::size_t four_way = 0;
  std::size_t intersections = 0;
  for (NodeId n : g.nodes()) {
    // Count distinct physical neighbors (in or out), so two-way streets
    // are not double counted.
    std::vector<std::uint32_t> neighbors;
    for (EdgeId e : g.out_edges(n)) neighbors.push_back(g.edge_to(e).value());
    for (EdgeId e : g.in_edges(n)) neighbors.push_back(g.edge_from(e).value());
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()), neighbors.end());
    if (neighbors.size() >= 3) {
      ++intersections;
      if (neighbors.size() == 4) ++four_way;
    }
  }
  metrics.four_way_share =
      intersections > 0 ? static_cast<double>(four_way) / static_cast<double>(intersections)
                        : 0.0;
  return metrics;
}

}  // namespace mts
