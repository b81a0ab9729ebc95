#include "graph/ch_table.hpp"

#include <limits>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace mts {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TableCounters {
  obs::CounterId tables;
  obs::CounterId settled;

  static const TableCounters& get() {
    static const TableCounters counters{
        obs::MetricsRegistry::instance().counter("ch.table_queries"),
        obs::MetricsRegistry::instance().counter("ch.nodes_settled"),
    };
    return counters;
  }
};

}  // namespace

ChTableQuery::ChTableQuery(const ContractionHierarchy& ch)
    : ch_(&ch), buckets_(ch.num_nodes()) {}

std::vector<double> ChTableQuery::table(std::span<const NodeId> sources,
                                        std::span<const NodeId> targets, RequestTrace* trace,
                                        WorkBudget* budget) {
  obs::ScopedPhase obs_phase("ch");
  const std::size_t n = ch_->num_nodes();
  for (NodeId s : sources) require(s.value() < n, "ChTableQuery: source out of range");
  for (NodeId t : targets) require(t.value() < n, "ChTableQuery: target out of range");

  // Clear only the buckets the previous call touched.
  for (std::uint32_t node : touched_) buckets_[node].clear();
  touched_.clear();

  const TableCounters& counters = TableCounters::get();
  // Ends one upward search.  Each search is a budget checkpoint charged
  // with its settled nodes (the unit a CH route query charges); the
  // registry and the trace see the work first, so a table its budget
  // stops still reports what it did.
  const auto finish_search = [&](std::uint64_t settled) {
    obs::add(counters.settled, settled);
    if (trace != nullptr) trace->ch_nodes_settled += settled;
    if (budget != nullptr) budget->charge_edges_scanned(settled);
  };

  // Backward upward search per target: deposit (target-index, distance)
  // at every settled node.  Full drain — upward searches are tiny and the
  // buckets must cover every potential meeting node.
  for (std::size_t j = 0; j < targets.size(); ++j) {
    std::uint64_t settled = 0;
    ws_.begin(n);
    ws_.set(targets[j].value(), false, 0.0, -1);
    ws_.heap_push(0.0, targets[j].value(), false);
    while (!ws_.heap_empty()) {
      const ChSearchSpace::Entry top = ws_.heap_pop();
      if (top.key > ws_.dist(top.node, false)) continue;  // stale
      ++settled;
      if (buckets_[top.node].empty()) touched_.push_back(top.node);
      buckets_[top.node].push_back({static_cast<std::uint32_t>(j), top.key});
      for (std::uint32_t i = ch_->down_offsets_[top.node];
           i < ch_->down_offsets_[top.node + 1]; ++i) {
        const ContractionHierarchy::SearchArc& arc = ch_->down_arcs_[i];
        const double candidate = top.key + arc.weight;
        if (candidate < ws_.dist(arc.other, false)) {
          ws_.set(arc.other, false, candidate, -1);
          ws_.heap_push(candidate, arc.other, false);
        }
      }
    }
    finish_search(settled);
  }

  // Forward upward search per source: scan buckets at every settled node.
  std::vector<double> result(sources.size() * targets.size(), kInf);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    double* row = result.data() + i * targets.size();
    std::uint64_t settled = 0;
    ws_.begin(n);
    ws_.set(sources[i].value(), true, 0.0, -1);
    ws_.heap_push(0.0, sources[i].value(), true);
    while (!ws_.heap_empty()) {
      const ChSearchSpace::Entry top = ws_.heap_pop();
      if (top.key > ws_.dist(top.node, true)) continue;  // stale
      ++settled;
      for (const BucketEntry& entry : buckets_[top.node]) {
        const double through = top.key + entry.dist;
        if (through < row[entry.target_index]) row[entry.target_index] = through;
      }
      for (std::uint32_t a = ch_->up_offsets_[top.node]; a < ch_->up_offsets_[top.node + 1];
           ++a) {
        const ContractionHierarchy::SearchArc& arc = ch_->up_arcs_[a];
        const double candidate = top.key + arc.weight;
        if (candidate < ws_.dist(arc.other, true)) {
          ws_.set(arc.other, true, candidate, -1);
          ws_.heap_push(candidate, arc.other, true);
        }
      }
    }
    finish_search(settled);
  }

  obs::add(counters.tables);
  return result;
}

}  // namespace mts
