// Shared helpers for the test suite: tiny canonical graphs, random graph
// generation, and brute-force oracles to cross-check fast algorithms.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/fault.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "graph/digraph.hpp"
#include "graph/dijkstra.hpp"
#include "graph/edge_filter.hpp"
#include "graph/path.hpp"
#include "obs/metrics.hpp"

namespace mts::test {

/// A graph plus its parallel weight vector.
struct WeightedGraph {
  DiGraph g;
  std::vector<double> weights;

  EdgeId edge(NodeId u, NodeId v, double w) {
    const EdgeId e = g.add_edge(u, v);
    weights.push_back(w);
    return e;
  }
};

/// The classic diamond:  s -> a -> t  (cost 2) and s -> b -> t (cost 3),
/// plus a direct s -> t (cost 4).
struct Diamond {
  WeightedGraph wg;
  NodeId s, a, b, t;
  EdgeId sa, at, sb, bt, st;

  Diamond() {
    s = wg.g.add_node(0, 0);
    a = wg.g.add_node(1, 1);
    b = wg.g.add_node(1, -1);
    t = wg.g.add_node(2, 0);
    sa = wg.edge(s, a, 1.0);
    at = wg.edge(a, t, 1.0);
    sb = wg.edge(s, b, 1.5);
    bt = wg.edge(b, t, 1.5);
    st = wg.edge(s, t, 4.0);
    wg.g.finalize();
  }
};

/// r x c grid with unit-ish weights; two-way edges.  Node (i, j) has id
/// i*c + j.  Horizontal weight `hw`, vertical weight `vw`.
inline WeightedGraph make_grid(int rows, int cols, double hw = 1.0, double vw = 1.0) {
  WeightedGraph wg;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) wg.g.add_node(j, i);
  }
  auto id = [cols](int i, int j) { return NodeId(static_cast<std::uint32_t>(i * cols + j)); };
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (j + 1 < cols) {
        wg.edge(id(i, j), id(i, j + 1), hw);
        wg.edge(id(i, j + 1), id(i, j), hw);
      }
      if (i + 1 < rows) {
        wg.edge(id(i, j), id(i + 1, j), vw);
        wg.edge(id(i + 1, j), id(i, j), vw);
      }
    }
  }
  wg.g.finalize();
  return wg;
}

/// Random sparse digraph with positive weights; guaranteed s=0 -> t=n-1
/// backbone so the pair is connected.
inline WeightedGraph make_random_graph(int n, int extra_edges, Rng& rng) {
  WeightedGraph wg;
  for (int i = 0; i < n; ++i) {
    wg.g.add_node(rng.uniform(0, 100), rng.uniform(0, 100));
  }
  for (int i = 0; i + 1 < n; ++i) {  // backbone
    wg.edge(NodeId(static_cast<std::uint32_t>(i)), NodeId(static_cast<std::uint32_t>(i + 1)),
            rng.uniform(1.0, 5.0));
  }
  for (int k = 0; k < extra_edges; ++k) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(static_cast<std::size_t>(n)));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(static_cast<std::size_t>(n)));
    if (u == v) continue;
    wg.edge(NodeId(u), NodeId(v), rng.uniform(1.0, 5.0));
  }
  wg.g.finalize();
  return wg;
}

/// An empty scratch directory private to this process and the running
/// test: `<tmp>/mts_<pid>_<suite>_<test>`.  gtest_discover_tests runs each
/// case as its own process and `ctest -j` runs them at once, so a fixed
/// name would let one case's cleanup delete another's files.  Every
/// directory handed out is removed when the process exits.
inline std::filesystem::path unique_temp_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "mts_" + std::to_string(::getpid());
  if (info != nullptr) name += std::string("_") + info->test_suite_name() + "_" + info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  struct RemoveAtExit {
    std::vector<std::filesystem::path> dirs;
    ~RemoveAtExit() {
      std::error_code ignored;
      for (const auto& d : dirs) std::filesystem::remove_all(d, ignored);
    }
  };
  static RemoveAtExit registry;
  registry.dirs.push_back(dir);
  return dir;
}

/// Arms one fault point for the enclosing scope: `point` fires `action` on
/// hit number `after`, and every point is disarmed again on exit.
struct ScopedFault {
  ScopedFault(const char* point, std::uint64_t after, fault::Action action) {
    fault::FaultRegistry::instance().reset();
    fault::FaultRegistry::instance().arm(point, after, action);
  }
  ~ScopedFault() { fault::FaultRegistry::instance().reset(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

/// Records metrics into a zeroed registry for the enclosing scope, then
/// zeroes it again and turns recording off on exit.
struct ScopedMetrics {
  ScopedMetrics() {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
  }
  ~ScopedMetrics() {
    obs::MetricsRegistry::instance().reset();
    obs::set_metrics_enabled(false);
  }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

  /// The counter's value so far (0 when it never registered).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    for (const auto& c : obs::MetricsRegistry::instance().snapshot().counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }
};

/// Zeroes every reported duration for the enclosing scope, as MTS_TIMING=0
/// does, so table and JSON bytes compare exactly; restores the previous
/// setting on exit.
struct ScopedTimingOff {
  ScopedTimingOff() : previous(timing_enabled()) { set_timing_enabled(false); }
  ~ScopedTimingOff() { set_timing_enabled(previous); }
  ScopedTimingOff(const ScopedTimingOff&) = delete;
  ScopedTimingOff& operator=(const ScopedTimingOff&) = delete;
  bool previous;
};

/// Brute-force enumeration of all simple s->t paths (for small graphs),
/// sorted by length then lexicographically by edge ids.
inline std::vector<Path> enumerate_simple_paths(const DiGraph& g,
                                                const std::vector<double>& weights, NodeId s,
                                                NodeId t, const EdgeFilter* filter = nullptr) {
  std::vector<Path> result;
  std::vector<std::uint8_t> visited(g.num_nodes(), 0);
  std::vector<EdgeId> stack;

  auto dfs = [&](auto&& self, NodeId u, double length) -> void {
    if (u == t) {
      result.push_back({stack, length});
      return;
    }
    visited[u.value()] = 1;
    for (EdgeId e : g.out_edges(u)) {
      if (!edge_alive(filter, e)) continue;
      const NodeId v = g.edge_to(e);
      if (visited[v.value()]) continue;
      stack.push_back(e);
      self(self, v, length + weights[e.value()]);
      stack.pop_back();
    }
    visited[u.value()] = 0;
  };
  dfs(dfs, s, 0.0);

  std::sort(result.begin(), result.end(), [](const Path& x, const Path& y) {
    if (x.length != y.length) return x.length < y.length;
    return x.edges < y.edges;
  });
  return result;
}

/// Bellman-Ford SSSP: slower than Dijkstra but independent of it, so it
/// is the reference the search engines are checked against.  Weights are
/// non-negative road metrics, so it converges in <= |V| rounds.
inline ShortestPathTree bellman_ford(const DiGraph& g, std::span<const double> weights,
                                     NodeId source, const EdgeFilter* filter = nullptr) {
  ShortestPathTree tree;
  tree.dist.assign(g.num_nodes(), kInfiniteDistance);
  tree.parent_edge.assign(g.num_nodes(), EdgeId::invalid());
  tree.dist[source.value()] = 0.0;

  bool changed = true;
  for (std::size_t round = 0; round < g.num_nodes() && changed; ++round) {
    changed = false;
    for (EdgeId e : g.edges()) {
      if (!edge_alive(filter, e)) continue;
      const NodeId u = g.edge_from(e);
      const NodeId v = g.edge_to(e);
      if (tree.dist[u.value()] == kInfiniteDistance) continue;
      const double candidate = tree.dist[u.value()] + weights[e.value()];
      if (candidate < tree.dist[v.value()]) {
        tree.dist[v.value()] = candidate;
        tree.parent_edge[v.value()] = e;
        changed = true;
      }
    }
  }
  return tree;
}

/// Per-node mask of nodes reachable from `source` along alive edges
/// (iterative DFS).
inline std::vector<std::uint8_t> reachable_from(const DiGraph& g, NodeId source,
                                                const EdgeFilter* filter = nullptr) {
  std::vector<std::uint8_t> seen(g.num_nodes(), 0);
  std::vector<NodeId> stack = {source};
  seen[source.value()] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (EdgeId e : g.out_edges(u)) {
      if (!edge_alive(filter, e)) continue;
      const NodeId v = g.edge_to(e);
      if (!seen[v.value()]) {
        seen[v.value()] = 1;
        stack.push_back(v);
      }
    }
  }
  return seen;
}

}  // namespace mts::test
