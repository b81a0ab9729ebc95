#include "graph/digraph.hpp"

#include <cmath>
#include <string>

#include "core/check.hpp"
#include "core/error.hpp"

namespace mts {

NodeId DiGraph::add_node(double x, double y) {
  finalized_ = false;
  xs_.push_back(x);
  ys_.push_back(y);
  return NodeId(static_cast<std::uint32_t>(xs_.size() - 1));
}

EdgeId DiGraph::add_edge(NodeId u, NodeId v) {
  require(u.value() < num_nodes() && v.value() < num_nodes(),
          "add_edge: endpoint out of range");
  finalized_ = false;
  tails_.push_back(u);
  heads_.push_back(v);
  return EdgeId(static_cast<std::uint32_t>(tails_.size() - 1));
}

void DiGraph::set_position(NodeId n, double x, double y) {
  xs_[n.value()] = x;
  ys_[n.value()] = y;
}

void DiGraph::finalize() {
  const std::size_t n = num_nodes();
  const std::size_t m = num_edges();

  auto build = [&](const std::vector<NodeId>& keys, std::vector<std::uint32_t>& offsets,
                   std::vector<EdgeId>& ids) {
    offsets.assign(n + 1, 0);
    for (NodeId k : keys) ++offsets[k.value() + 1];
    for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
    ids.resize(m);
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t e = 0; e < m; ++e) {
      ids[cursor[keys[e].value()]++] = EdgeId(static_cast<std::uint32_t>(e));
    }
  };

  build(tails_, out_offsets_, out_edge_ids_);
  build(heads_, in_offsets_, in_edge_ids_);
  finalized_ = true;
  MTS_DCHECK_INVARIANTS(*this);
}

void DiGraph::check_invariants() const {
  const std::size_t n = num_nodes();
  const std::size_t m = num_edges();

  enforce_invariant(xs_.size() == ys_.size(), "coordinate arrays disagree in size");
  enforce_invariant(tails_.size() == heads_.size(), "endpoint arrays disagree in size");
  for (std::size_t i = 0; i < n; ++i) {
    enforce_invariant(std::isfinite(xs_[i]) && std::isfinite(ys_[i]),
                      "node " + std::to_string(i) + " has non-finite coordinates");
  }
  for (std::size_t e = 0; e < m; ++e) {
    enforce_invariant(tails_[e].value() < n && heads_[e].value() < n,
                      "edge " + std::to_string(e) + " endpoint out of range");
  }
  if (!finalized_) return;

  // One CSR side: offsets monotone and exhaustive, bucket members keyed by
  // the right node, every edge present exactly once.
  auto check_side = [&](const char* side, const std::vector<std::uint32_t>& offsets,
                        const std::vector<EdgeId>& ids, const std::vector<NodeId>& keys) {
    const std::string tag(side);
    enforce_invariant(offsets.size() == n + 1, tag + " offsets size != num_nodes + 1");
    enforce_invariant(offsets.empty() || offsets.front() == 0, tag + " offsets do not start at 0");
    for (std::size_t i = 0; i < n; ++i) {
      enforce_invariant(offsets[i] <= offsets[i + 1], tag + " offsets not monotone at node " +
                                                          std::to_string(i));
    }
    enforce_invariant(offsets.empty() || offsets.back() == m,
                      tag + " offsets do not cover all edges");
    enforce_invariant(ids.size() == m, tag + " edge-id array size != num_edges");
    std::vector<std::uint8_t> seen(m, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        const EdgeId e = ids[k];
        enforce_invariant(e.value() < m, tag + " bucket holds out-of-range edge id");
        enforce_invariant(keys[e.value()].value() == i,
                          tag + " bucket of node " + std::to_string(i) +
                              " holds edge keyed elsewhere");
        enforce_invariant(!seen[e.value()],
                          tag + " lists edge " + std::to_string(e.value()) + " twice");
        seen[e.value()] = 1;
      }
    }
  };
  check_side("out-CSR", out_offsets_, out_edge_ids_, tails_);
  check_side("in-CSR", in_offsets_, in_edge_ids_, heads_);
}

std::span<const EdgeId> DiGraph::out_edges(NodeId n) const {
  require(finalized_, "out_edges: graph not finalized");
  const auto lo = out_offsets_[n.value()];
  const auto hi = out_offsets_[n.value() + 1];
  return {out_edge_ids_.data() + lo, hi - lo};
}

std::span<const EdgeId> DiGraph::in_edges(NodeId n) const {
  require(finalized_, "in_edges: graph not finalized");
  const auto lo = in_offsets_[n.value()];
  const auto hi = in_offsets_[n.value() + 1];
  return {in_edge_ids_.data() + lo, hi - lo};
}

double DiGraph::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / static_cast<double>(num_nodes());
}

double DiGraph::node_distance(NodeId a, NodeId b) const {
  const double dx = x(a) - x(b);
  const double dy = y(a) - y(b);
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace mts
