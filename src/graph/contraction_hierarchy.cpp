#include "graph/contraction_hierarchy.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/error.hpp"
#include "obs/phase.hpp"

namespace mts {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Witness searches settle at most this many nodes (larger = fewer
/// redundant shortcuts, slower preprocessing) and follow at most this many
/// hops (small values are standard).
constexpr std::size_t kWitnessSettleLimit = 60;
constexpr std::size_t kWitnessHopLimit = 16;

struct ChCounters {
  obs::CounterId queries;
  obs::CounterId settled;
  obs::CounterId phast_runs;
  obs::CounterId sweep_relaxations;
  obs::CounterId workspace_reuses;

  static const ChCounters& get() {
    static const ChCounters counters{
        obs::MetricsRegistry::instance().counter("ch.queries"),
        obs::MetricsRegistry::instance().counter("ch.nodes_settled"),
        obs::MetricsRegistry::instance().counter("ch.phast_runs"),
        obs::MetricsRegistry::instance().counter("ch.sweep_relaxations"),
        obs::MetricsRegistry::instance().counter("ch.workspace_reuses"),
    };
    return counters;
  }
};

/// Arc in the preprocessing pool.  `via < 0` means an original edge.
struct PoolArc {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double weight = 0.0;
  std::int32_t via = -1;
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  std::uint32_t original_edge = 0;
};

/// Preprocessing state: dynamic adjacency over pool arcs between
/// not-yet-contracted nodes.
struct Builder {
  std::vector<PoolArc> pool;
  std::vector<std::vector<std::uint32_t>> out_arcs;  // pool ids by tail
  std::vector<std::vector<std::uint32_t>> in_arcs;   // pool ids by head
  std::vector<std::uint8_t> contracted;
  std::vector<std::uint32_t> depth;  // hierarchy-depth heuristic

  Builder(const DiGraph& g, std::span<const double> weights)
      : out_arcs(g.num_nodes()),
        in_arcs(g.num_nodes()),
        contracted(g.num_nodes(), 0),
        depth(g.num_nodes(), 0) {
    for (EdgeId e : g.edges()) {
      const auto u = g.edge_from(e).value();
      const auto v = g.edge_to(e).value();
      require(weights[e.value()] >= 0.0, "CH: negative edge weight");
      if (u == v) continue;  // self loops never lie on shortest paths
      add_arc({u, v, weights[e.value()], -1, 0, 0, e.value()});
    }
  }

  /// Adds an arc, keeping only the lightest per (from, to) pair.
  void add_arc(const PoolArc& arc) {
    for (std::uint32_t id : out_arcs[arc.from]) {
      if (pool[id].to == arc.to) {
        if (arc.weight < pool[id].weight) pool[id] = arc;
        return;
      }
    }
    const auto id = static_cast<std::uint32_t>(pool.size());
    pool.push_back(arc);
    out_arcs[arc.from].push_back(id);
    in_arcs[arc.to].push_back(id);
  }

  /// Bounded local search: does a u->w path avoiding `banned` with length
  /// <= `limit` exist among uncontracted nodes?
  bool witness_exists(std::uint32_t source, std::uint32_t target, std::uint32_t banned,
                      double limit) {
    struct Entry {
      double dist;
      std::uint32_t node;
      std::uint32_t hops;
      bool operator<(const Entry& other) const { return dist > other.dist; }
    };
    // Searches touch a handful of nodes; a linear-scan map beats O(n)
    // clears and hash overhead.
    std::vector<std::pair<std::uint32_t, double>> best;
    auto get = [&](std::uint32_t n) {
      for (const auto& [node, dist] : best) {
        if (node == n) return dist;
      }
      return kInf;
    };
    auto set = [&](std::uint32_t n, double d) {
      for (auto& [node, dist] : best) {
        if (node == n) {
          dist = d;
          return;
        }
      }
      best.emplace_back(n, d);
    };

    std::priority_queue<Entry> queue;
    queue.push({0.0, source, 0});
    set(source, 0.0);
    std::size_t settled = 0;
    while (!queue.empty()) {
      const auto [dist, node, hops] = queue.top();
      queue.pop();
      if (dist > get(node)) continue;  // stale
      if (node == target) return dist <= limit;
      if (++settled > kWitnessSettleLimit) break;
      if (hops >= kWitnessHopLimit) continue;
      for (std::uint32_t id : out_arcs[node]) {
        const PoolArc& arc = pool[id];
        if (contracted[arc.to] || arc.to == banned) continue;
        const double candidate = dist + arc.weight;
        if (candidate <= limit && candidate < get(arc.to)) {
          set(arc.to, candidate);
          queue.push({candidate, arc.to, hops + 1});
        }
      }
    }
    return get(target) <= limit;
  }

  /// Shortcuts required to contract `v`; inserts them when `apply`.
  int simulate_or_contract(std::uint32_t v, bool apply) {
    int shortcuts = 0;
    // Snapshot: add_arc may grow in_arcs/out_arcs of other nodes, but not
    // of v, so iterating v's lists by index is safe; still copy ids for
    // clarity.
    const std::vector<std::uint32_t> ins = in_arcs[v];
    const std::vector<std::uint32_t> outs = out_arcs[v];
    for (std::uint32_t in_id : ins) {
      const PoolArc in_arc = pool[in_id];
      if (contracted[in_arc.from]) continue;
      for (std::uint32_t out_id : outs) {
        const PoolArc out_arc = pool[out_id];
        if (contracted[out_arc.to] || out_arc.to == in_arc.from) continue;
        const double through = in_arc.weight + out_arc.weight;
        if (witness_exists(in_arc.from, out_arc.to, v, through)) continue;
        ++shortcuts;
        if (apply) {
          add_arc({in_arc.from, out_arc.to, through, static_cast<std::int32_t>(v), in_id,
                   out_id, 0});
        }
      }
    }
    return shortcuts;
  }

  /// Edge-difference priority (lower contracts earlier).
  double priority(std::uint32_t v) {
    int alive = 0;
    for (std::uint32_t id : in_arcs[v]) alive += contracted[pool[id].from] ? 0 : 1;
    for (std::uint32_t id : out_arcs[v]) alive += contracted[pool[id].to] ? 0 : 1;
    const int shortcuts = simulate_or_contract(v, /*apply=*/false);
    return static_cast<double>(shortcuts) - static_cast<double>(alive) +
           0.5 * static_cast<double>(depth[v]);
  }
};

}  // namespace

bool ChSearchSpace::begin(std::size_t num_nodes) {
  heap_.clear();
  bool reused = true;
  if (dist_f_.size() != num_nodes) {
    stamp_f_.assign(num_nodes, 0);
    stamp_b_.assign(num_nodes, 0);
    dist_f_.assign(num_nodes, 0.0);
    dist_b_.assign(num_nodes, 0.0);
    parent_f_.assign(num_nodes, -1);
    parent_b_.assign(num_nodes, -1);
    epoch_ = 0;
    reused = false;
  }
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_f_.begin(), stamp_f_.end(), 0);
    std::fill(stamp_b_.begin(), stamp_b_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  return reused;
}

bool ChSearchSpace::heap_later(const Entry& a, const Entry& b) {
  if (a.key != b.key) return a.key > b.key;
  if (a.node != b.node) return a.node > b.node;
  return a.forward && !b.forward;
}

void ChSearchSpace::heap_push(double key, std::uint32_t node, bool forward) {
  heap_.push_back({key, node, forward});
  std::push_heap(heap_.begin(), heap_.end(), heap_later);
}

ChSearchSpace::Entry ChSearchSpace::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), heap_later);
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

ChSearchSpace& thread_ch_search_space() {
  thread_local ChSearchSpace ws;
  return ws;
}

ContractionHierarchy ContractionHierarchy::build(const DiGraph& g,
                                                 std::span<const double> weights) {
  require(g.finalized(), "CH: graph not finalized");
  require(weights.size() == g.num_edges(), "CH: weights size mismatch");

  const std::size_t n = g.num_nodes();
  Builder builder(g, weights);

  ContractionHierarchy ch;
  ch.rank_.assign(n, 0);

  struct QueueEntry {
    double priority;
    std::uint32_t node;
    bool operator<(const QueueEntry& other) const { return priority > other.priority; }
  };
  std::priority_queue<QueueEntry> queue;
  for (std::uint32_t v = 0; v < n; ++v) queue.push({builder.priority(v), v});

  std::uint32_t next_rank = 0;
  while (!queue.empty()) {
    const auto [stale_priority, v] = queue.top();
    queue.pop();
    if (builder.contracted[v]) continue;
    // Lazy update: re-evaluate; requeue unless still the minimum.
    const double fresh = builder.priority(v);
    if (!queue.empty() && fresh > stale_priority + 1e-9 && fresh > queue.top().priority) {
      queue.push({fresh, v});
      continue;
    }

    builder.simulate_or_contract(v, /*apply=*/true);
    builder.contracted[v] = 1;
    ch.rank_[v] = next_rank++;
    for (std::uint32_t id : builder.in_arcs[v]) {
      const auto u = builder.pool[id].from;
      if (!builder.contracted[u]) {
        builder.depth[u] = std::max(builder.depth[u], builder.depth[v] + 1);
      }
    }
    for (std::uint32_t id : builder.out_arcs[v]) {
      const auto w = builder.pool[id].to;
      if (!builder.contracted[w]) {
        builder.depth[w] = std::max(builder.depth[w], builder.depth[v] + 1);
      }
    }
  }

  // Expansion records, in pool order.
  ch.pool_.reserve(builder.pool.size());
  for (const PoolArc& arc : builder.pool) {
    ch.pool_.push_back({arc.via, arc.left, arc.right, arc.original_edge});
    if (arc.via >= 0) ++ch.num_shortcuts_;
  }

  // Partition arcs into the two search graphs.
  std::vector<std::vector<SearchArc>> up_by_node(n);
  std::vector<std::vector<SearchArc>> down_by_node(n);
  for (std::uint32_t id = 0; id < builder.pool.size(); ++id) {
    const PoolArc& arc = builder.pool[id];
    if (ch.rank_[arc.from] < ch.rank_[arc.to]) {
      up_by_node[arc.from].push_back({arc.from, arc.to, arc.weight, id});
    } else {
      down_by_node[arc.to].push_back({arc.to, arc.from, arc.weight, id});
    }
  }
  auto freeze = [n](const std::vector<std::vector<SearchArc>>& by_node,
                    std::vector<SearchArc>& arcs, std::vector<std::uint32_t>& offsets) {
    offsets.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      offsets[i + 1] = offsets[i] + static_cast<std::uint32_t>(by_node[i].size());
    }
    arcs.clear();
    arcs.reserve(offsets[n]);
    for (const auto& list : by_node) arcs.insert(arcs.end(), list.begin(), list.end());
  };
  freeze(up_by_node, ch.up_arcs_, ch.up_offsets_);
  freeze(down_by_node, ch.down_arcs_, ch.down_offsets_);

  // PHAST sweep order: every up-arc (travel tail -> head, rank[tail] <
  // rank[head]) keyed by DESCENDING head rank.  The one-to-all sweep in
  // bounds_to_target reads dist[head] and improves dist[tail]; descending
  // head order guarantees each head's label is final before any of its
  // in-arcs is applied.  Ranks are unique, so the order is deterministic
  // up to same-head arcs, where the stable sort keeps CSR order.
  ch.sweep_arcs_.reserve(ch.up_arcs_.size());
  for (const SearchArc& arc : ch.up_arcs_) {
    ch.sweep_arcs_.push_back({arc.base, arc.other, arc.weight});
  }
  std::stable_sort(ch.sweep_arcs_.begin(), ch.sweep_arcs_.end(),
                   [&ch](const SweepArc& a, const SweepArc& b) {
                     return ch.rank_[a.head] > ch.rank_[b.head];
                   });
  return ch;
}

void ContractionHierarchy::unpack(std::uint32_t pool_id, std::vector<EdgeId>& out) const {
  const PoolRecord& record = pool_[pool_id];
  if (record.via < 0) {
    out.push_back(EdgeId(record.original_edge));
    return;
  }
  unpack(record.left, out);
  unpack(record.right, out);
}

ContractionHierarchy::QueryResult ContractionHierarchy::query(NodeId source,
                                                              NodeId target) const {
  return query(source, target, thread_ch_search_space());
}

ContractionHierarchy::QueryResult ContractionHierarchy::query(NodeId source, NodeId target,
                                                              ChSearchSpace& ws,
                                                              WorkBudget* budget) const {
  require(source.value() < num_nodes() && target.value() < num_nodes(),
          "CH query: endpoint out of range");
  obs::ScopedPhase obs_phase("ch");
  QueryResult result;
  result.distance = kInf;

  const std::size_t n = num_nodes();
  const ChCounters& counters = ChCounters::get();
  if (ws.begin(n)) obs::add(counters.workspace_reuses);
  ws.set(source.value(), true, 0.0, -1);
  ws.set(target.value(), false, 0.0, -1);
  ws.heap_push(0.0, source.value(), true);
  ws.heap_push(0.0, target.value(), false);

  double best = kInf;
  std::int64_t meet = -1;

  while (!ws.heap_empty()) {
    const ChSearchSpace::Entry top = ws.heap_pop();
    if (top.key > ws.dist(top.node, top.forward)) continue;  // stale
    if (top.key > best) continue;  // cannot contribute a better meet
    ++result.nodes_settled;

    const double theirs = ws.dist(top.node, !top.forward);
    if (theirs < kInf && top.key + theirs < best) {
      best = top.key + theirs;
      meet = top.node;
    }

    const auto& offsets = top.forward ? up_offsets_ : down_offsets_;
    const auto& arcs = top.forward ? up_arcs_ : down_arcs_;
    for (std::uint32_t i = offsets[top.node]; i < offsets[top.node + 1]; ++i) {
      const SearchArc& arc = arcs[i];
      const double candidate = top.key + arc.weight;
      if (candidate < ws.dist(arc.other, top.forward)) {
        ws.set(arc.other, top.forward, candidate, static_cast<std::int64_t>(i));
        ws.heap_push(candidate, arc.other, top.forward);
      }
    }
  }

  // The registry sees the work before the budget checkpoint, so a query
  // the budget stops still reports what it did.
  obs::add(counters.queries);
  obs::add(counters.settled, result.nodes_settled);
  if (budget != nullptr) {
    ++budget->ch_queries;
    budget->charge_ch_nodes_settled(result.nodes_settled);
  }

  if (meet < 0) return result;
  result.distance = best;

  Path path;
  path.length = best;
  // Forward half: walk meet -> source via up-arc parents (real direction
  // base -> other), reverse the arc order, then unpack left-to-right.
  std::vector<std::uint32_t> chain;
  for (std::uint32_t cursor = static_cast<std::uint32_t>(meet);
       ws.parent(cursor, true) >= 0;) {
    const auto i = static_cast<std::uint32_t>(ws.parent(cursor, true));
    chain.push_back(up_arcs_[i].pool_id);
    cursor = up_arcs_[i].base;
  }
  std::reverse(chain.begin(), chain.end());
  for (std::uint32_t pool_id : chain) unpack(pool_id, path.edges);
  // Backward half: walk meet -> target via down-arc parents; each arc's
  // real direction is other -> base, i.e. exactly the travel direction.
  for (std::uint32_t cursor = static_cast<std::uint32_t>(meet);
       ws.parent(cursor, false) >= 0;) {
    const auto i = static_cast<std::uint32_t>(ws.parent(cursor, false));
    unpack(down_arcs_[i].pool_id, path.edges);
    cursor = down_arcs_[i].base;
  }
  result.path = std::move(path);
  return result;
}

void ContractionHierarchy::bounds_to_target(NodeId target, ChSearchSpace& ws, SearchSpace& out,
                                            WorkBudget* budget) const {
  require(target.value() < num_nodes(), "CH bounds_to_target: target out of range");
  obs::ScopedPhase obs_phase("ch");
  const std::size_t n = num_nodes();
  const ChCounters& counters = ChCounters::get();
  if (ws.begin(n)) obs::add(counters.workspace_reuses);
  ws.sweep_.assign(n, kInf);

  // Phase 1: backward upward search from the target — identical to the
  // query's backward half.  Settled labels are exact distances to target
  // along rank-descending (travel direction) arc chains.
  ws.set(target.value(), false, 0.0, -1);
  ws.heap_push(0.0, target.value(), false);
  std::uint64_t settled = 0;
  while (!ws.heap_empty()) {
    const ChSearchSpace::Entry top = ws.heap_pop();
    if (top.key > ws.dist(top.node, false)) continue;  // stale
    ++settled;
    ws.sweep_[top.node] = top.key;
    for (std::uint32_t i = down_offsets_[top.node]; i < down_offsets_[top.node + 1]; ++i) {
      const SearchArc& arc = down_arcs_[i];
      const double candidate = top.key + arc.weight;
      if (candidate < ws.dist(arc.other, false)) {
        ws.set(arc.other, false, candidate, static_cast<std::int64_t>(i));
        ws.heap_push(candidate, arc.other, false);
      }
    }
  }

  // Phase 2: one linear pass, no heap.  Every shortest path to the target
  // climbs ranks and then descends; the climb is one up-arc whose head's
  // label is already final (descending head-rank order), so a single scan
  // finishes every node.
  std::uint64_t relaxed = 0;
  for (const SweepArc& arc : sweep_arcs_) {
    const double through = ws.sweep_[arc.head] + arc.weight;
    if (through < ws.sweep_[arc.tail]) {
      ws.sweep_[arc.tail] = through;
      ++relaxed;
    }
  }

  // Publish as a bounds-only SearchSpace (no parents): exactly what
  // DijkstraOptions::goal_bounds and Yen's reverse-tree fast paths read.
  out.begin(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (ws.sweep_[v] < kInf) out.set_label(NodeId(v), ws.sweep_[v], EdgeId::invalid());
  }

  obs::add(counters.phast_runs);
  obs::add(counters.settled, settled);
  obs::add(counters.sweep_relaxations, relaxed);
  if (budget != nullptr) budget->charge_ch_nodes_settled(settled);
}

}  // namespace mts
