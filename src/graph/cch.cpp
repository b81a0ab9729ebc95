#include "graph/cch.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace mts {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct CchCounters {
  obs::CounterId recustomizations;
  obs::CounterId arcs_recomputed;
  obs::CounterId settled;  // shares ch.nodes_settled: one serving-cost total
  obs::CounterId phast_runs;
  obs::CounterId sweep_relaxations;

  static const CchCounters& get() {
    static const CchCounters counters{
        obs::MetricsRegistry::instance().counter("ch.recustomizations"),
        obs::MetricsRegistry::instance().counter("cch.arcs_recomputed"),
        obs::MetricsRegistry::instance().counter("ch.nodes_settled"),
        obs::MetricsRegistry::instance().counter("cch.phast_runs"),
        obs::MetricsRegistry::instance().counter("ch.sweep_relaxations"),
    };
    return counters;
  }
};

}  // namespace

CchTopology CchTopology::build(const DiGraph& g, std::span<const std::uint32_t> rank) {
  require(g.finalized(), "CCH: graph not finalized");
  require(rank.size() == g.num_nodes(), "CCH: rank size mismatch");
  const std::size_t n = g.num_nodes();

  CchTopology topo;
  topo.rank_.assign(rank.begin(), rank.end());

  std::vector<std::uint32_t> node_at_rank(n, 0);
  std::vector<std::uint8_t> rank_seen(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    require(rank[v] < n && rank_seen[rank[v]] == 0, "CCH: rank is not a permutation");
    rank_seen[rank[v]] = 1;
    node_at_rank[rank[v]] = v;
  }

  struct TmpArc {
    std::uint32_t from;
    std::uint32_t to;
  };
  std::vector<TmpArc> arcs;
  // Dedupe registry, key (from << 32) | to.  Lookups only — never
  // iterated, so arc order stays the deterministic creation order.
  std::unordered_map<std::uint64_t, std::uint32_t> arc_ids;
  std::vector<std::vector<std::uint32_t>> out_up(n);  // arcs v->w, rank w > rank v, keyed v
  std::vector<std::vector<std::uint32_t>> in_up(n);   // arcs u->v, rank u > rank v, keyed v

  auto ensure_arc = [&](std::uint32_t from, std::uint32_t to) {
    const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
    const auto [it, inserted] =
        arc_ids.try_emplace(key, static_cast<std::uint32_t>(arcs.size()));
    if (inserted) {
      arcs.push_back({from, to});
      if (rank[from] < rank[to]) {
        out_up[from].push_back(it->second);
      } else {
        in_up[to].push_back(it->second);
      }
    }
    return it->second;
  };

  topo.edge_arc_.assign(g.num_edges(), kInvalidArc);
  for (EdgeId e : g.edges()) {
    const auto from = g.edge_from(e).value();
    const auto to = g.edge_to(e).value();
    if (from == to) continue;  // self loops never lie on shortest paths
    topo.edge_arc_[e.value()] = ensure_arc(from, to);
  }

  // Elimination game, ascending rank: connect every higher-ranked
  // in-neighbor to every higher-ranked out-neighbor and record the
  // triangle.  No witness pruning — correctness for arbitrary later
  // metrics depends on keeping every composition candidate.
  struct Triangle {
    std::uint32_t parent;
    std::uint32_t left;
    std::uint32_t right;
  };
  std::vector<Triangle> triangles;
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::uint32_t v = node_at_rank[r];
    // ensure_arc appends only to lists of higher-ranked nodes, never to
    // v's own; iterate by index against the pre-loop sizes.
    const std::size_t num_in = in_up[v].size();
    const std::size_t num_out = out_up[v].size();
    for (std::size_t i = 0; i < num_in; ++i) {
      const std::uint32_t left = in_up[v][i];
      const std::uint32_t u = arcs[left].from;
      for (std::size_t o = 0; o < num_out; ++o) {
        const std::uint32_t right = out_up[v][o];
        const std::uint32_t w = arcs[right].to;
        if (u == w) continue;
        triangles.push_back({ensure_arc(u, w), left, right});
      }
    }
  }

  // Reindex into customization order: ascending lower-endpoint rank,
  // creation order within a rank.  A triangle's children own the apex —
  // strictly the lowest rank of the three nodes — so children always
  // precede their parent, which makes one forward pass a valid
  // (re-)customization schedule.
  const auto num_arcs = static_cast<std::uint32_t>(arcs.size());
  auto owner_rank = [&](std::uint32_t a) {
    return std::min(rank[arcs[a].from], rank[arcs[a].to]);
  };
  std::vector<std::uint32_t> order(num_arcs);
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return owner_rank(a) < owner_rank(b);
  });
  std::vector<std::uint32_t> new_id(num_arcs, 0);
  for (std::uint32_t i = 0; i < num_arcs; ++i) new_id[order[i]] = i;

  topo.arc_from_.resize(num_arcs);
  topo.arc_to_.resize(num_arcs);
  for (std::uint32_t a = 0; a < num_arcs; ++a) {
    topo.arc_from_[new_id[a]] = arcs[a].from;
    topo.arc_to_[new_id[a]] = arcs[a].to;
  }
  for (std::uint32_t& a : topo.edge_arc_) {
    if (a != kInvalidArc) a = new_id[a];
  }
  for (Triangle& t : triangles) {
    t.parent = new_id[t.parent];
    t.left = new_id[t.left];
    t.right = new_id[t.right];
  }

  // Parallel-edge CSR (edge order within an arc = EdgeId order).
  topo.edge_offsets_.assign(num_arcs + 1, 0);
  for (std::uint32_t a : topo.edge_arc_) {
    if (a != kInvalidArc) ++topo.edge_offsets_[a + 1];
  }
  for (std::uint32_t a = 0; a < num_arcs; ++a) {
    topo.edge_offsets_[a + 1] += topo.edge_offsets_[a];
  }
  topo.edge_ids_.assign(topo.edge_offsets_[num_arcs], EdgeId(0));
  {
    std::vector<std::uint32_t> cursor(topo.edge_offsets_.begin(), topo.edge_offsets_.end() - 1);
    for (EdgeId e : g.edges()) {
      const std::uint32_t a = topo.edge_arc_[e.value()];
      if (a == kInvalidArc) continue;
      topo.edge_ids_[cursor[a]++] = e;
    }
  }

  // Triangle CSR keyed by parent, plus the reverse (child -> parents)
  // dependency CSR that recustomization propagates along.
  topo.tri_offsets_.assign(num_arcs + 1, 0);
  topo.parent_offsets_.assign(num_arcs + 1, 0);
  for (const Triangle& t : triangles) {
    ++topo.tri_offsets_[t.parent + 1];
    ++topo.parent_offsets_[t.left + 1];
    ++topo.parent_offsets_[t.right + 1];
  }
  for (std::uint32_t a = 0; a < num_arcs; ++a) {
    topo.tri_offsets_[a + 1] += topo.tri_offsets_[a];
    topo.parent_offsets_[a + 1] += topo.parent_offsets_[a];
  }
  topo.tri_left_.assign(topo.tri_offsets_[num_arcs], 0);
  topo.tri_right_.assign(topo.tri_offsets_[num_arcs], 0);
  topo.parent_arcs_.assign(topo.parent_offsets_[num_arcs], 0);
  {
    std::vector<std::uint32_t> tri_cursor(topo.tri_offsets_.begin(), topo.tri_offsets_.end() - 1);
    std::vector<std::uint32_t> parent_cursor(topo.parent_offsets_.begin(),
                                             topo.parent_offsets_.end() - 1);
    for (const Triangle& t : triangles) {
      const std::uint32_t slot = tri_cursor[t.parent]++;
      topo.tri_left_[slot] = t.left;
      topo.tri_right_[slot] = t.right;
      topo.parent_arcs_[parent_cursor[t.left]++] = t.parent;
      topo.parent_arcs_[parent_cursor[t.right]++] = t.parent;
    }
  }

  // Backward-search CSR and the PHAST sweep order.
  topo.up_in_offsets_.assign(n + 1, 0);
  for (std::uint32_t a = 0; a < num_arcs; ++a) {
    if (rank[topo.arc_from_[a]] < rank[topo.arc_to_[a]]) {
      topo.sweep_arcs_.push_back(a);
    } else {
      ++topo.up_in_offsets_[topo.arc_to_[a] + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) topo.up_in_offsets_[v + 1] += topo.up_in_offsets_[v];
  topo.up_in_arcs_.assign(topo.up_in_offsets_[n], 0);
  {
    std::vector<std::uint32_t> cursor(topo.up_in_offsets_.begin(), topo.up_in_offsets_.end() - 1);
    for (std::uint32_t a = 0; a < num_arcs; ++a) {
      if (rank[topo.arc_from_[a]] > rank[topo.arc_to_[a]]) {
        topo.up_in_arcs_[cursor[topo.arc_to_[a]]++] = a;
      }
    }
  }
  std::stable_sort(topo.sweep_arcs_.begin(), topo.sweep_arcs_.end(),
                   [&topo](std::uint32_t a, std::uint32_t b) {
                     return topo.rank_[topo.arc_to_[a]] > topo.rank_[topo.arc_to_[b]];
                   });
  return topo;
}

CchMetric::CchMetric(const CchTopology& topology, std::span<const double> weights)
    : topo_(&topology), weights_(weights) {
  require(weights.size() == topo_->num_edges(), "CchMetric: weights size mismatch");
  for (const double w : weights) {
    require(w >= 0.0, "CchMetric: weights must be finite and non-negative");
  }
  removed_.assign(weights.size(), 0);
  dirty_.assign(topo_->num_arcs(), 0);
  arc_weight_.resize(topo_->num_arcs());
  obs::ScopedPhase obs_phase("cch");
  for (std::uint32_t a = 0; a < topo_->num_arcs(); ++a) arc_weight_[a] = arc_value(a);
}

double CchMetric::arc_value(std::uint32_t a) const {
  double value = kInf;
  for (std::uint32_t i = topo_->edge_offsets_[a]; i < topo_->edge_offsets_[a + 1]; ++i) {
    const EdgeId e = topo_->edge_ids_[i];
    if (removed_[e.value()] != 0) continue;
    value = std::min(value, weights_[e.value()]);
  }
  for (std::uint32_t i = topo_->tri_offsets_[a]; i < topo_->tri_offsets_[a + 1]; ++i) {
    value = std::min(value, arc_weight_[topo_->tri_left_[i]] + arc_weight_[topo_->tri_right_[i]]);
  }
  return value;
}

void CchMetric::recustomize(const EdgeFilter* filter) {
  obs::ScopedPhase obs_phase("cch");
  const auto num_arcs = static_cast<std::uint32_t>(topo_->num_arcs());
  std::uint32_t first_dirty = num_arcs;
  for (std::size_t e = 0; e < removed_.size(); ++e) {
    const std::uint8_t now =
        (filter != nullptr && filter->is_removed(EdgeId(static_cast<std::uint32_t>(e)))) ? 1 : 0;
    if (now == removed_[e]) continue;
    removed_[e] = now;
    const std::uint32_t a = topo_->edge_arc_[e];
    if (a == CchTopology::kInvalidArc) continue;  // self loop: never routed
    if (dirty_[a] == 0) {
      dirty_[a] = 1;
      first_dirty = std::min(first_dirty, a);
    }
  }

  // One forward pass in customization order: children precede parents, so
  // each dirty arc sees final child values; changed values wake their
  // triangle parents (always later in the order).
  std::uint64_t recomputed = 0;
  for (std::uint32_t a = first_dirty; a < num_arcs; ++a) {
    if (dirty_[a] == 0) continue;
    dirty_[a] = 0;
    ++recomputed;
    const double value = arc_value(a);
    if (value == arc_weight_[a]) continue;
    arc_weight_[a] = value;
    for (std::uint32_t i = topo_->parent_offsets_[a]; i < topo_->parent_offsets_[a + 1]; ++i) {
      dirty_[topo_->parent_arcs_[i]] = 1;
    }
  }

  const CchCounters& counters = CchCounters::get();
  obs::add(counters.recustomizations);
  obs::add(counters.arcs_recomputed, recomputed);
}

void CchMetric::bounds_to_target(NodeId target, SearchSpace& out, WorkBudget* budget) {
  const std::size_t n = topo_->num_nodes();
  require(target.value() < n, "CchMetric bounds_to_target: target out of range");
  obs::ScopedPhase obs_phase("cch");
  ws_.begin(n);
  ws_.sweep_.assign(n, kInf);

  // Phase 1: backward upward search from the target under the mask.
  ws_.set(target.value(), false, 0.0, -1);
  ws_.heap_push(0.0, target.value(), false);
  std::uint64_t settled = 0;
  while (!ws_.heap_empty()) {
    const ChSearchSpace::Entry top = ws_.heap_pop();
    if (top.key > ws_.dist(top.node, false)) continue;  // stale
    ++settled;
    ws_.sweep_[top.node] = top.key;
    for (std::uint32_t i = topo_->up_in_offsets_[top.node];
         i < topo_->up_in_offsets_[top.node + 1]; ++i) {
      const std::uint32_t a = topo_->up_in_arcs_[i];
      const double candidate = top.key + arc_weight_[a];
      if (candidate < ws_.dist(topo_->arc_from_[a], false)) {
        ws_.set(topo_->arc_from_[a], false, candidate, -1);
        ws_.heap_push(candidate, topo_->arc_from_[a], false);
      }
    }
  }

  // Phase 2: one pass over upward arcs in descending head rank (see
  // ContractionHierarchy::bounds_to_target for the argument).
  std::uint64_t relaxed = 0;
  for (const std::uint32_t a : topo_->sweep_arcs_) {
    const double through = ws_.sweep_[topo_->arc_to_[a]] + arc_weight_[a];
    if (through < ws_.sweep_[topo_->arc_from_[a]]) {
      ws_.sweep_[topo_->arc_from_[a]] = through;
      ++relaxed;
    }
  }

  out.begin(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (ws_.sweep_[v] < kInf) out.set_label(NodeId(v), ws_.sweep_[v], EdgeId::invalid());
  }

  const CchCounters& counters = CchCounters::get();
  obs::add(counters.phast_runs);
  obs::add(counters.settled, settled);
  obs::add(counters.sweep_relaxations, relaxed);
  if (budget != nullptr) budget->charge_ch_nodes_settled(settled);
}

}  // namespace mts
