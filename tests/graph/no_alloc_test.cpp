// The search hot loops do not allocate (DESIGN.md §9): once a SearchSpace
// has been sized by a first run, every later search over the same graph
// reuses it, and a precondition check that passes costs no heap traffic.
//
// This file replaces the global operator new with a counting one, so it is
// its own test binary: the count covers the whole process, and no other
// suite should run under the replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/search_space.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Not inlined: GCC's -Wmismatched-new-delete would otherwise see the
// free() inside a delete-expression on memory from operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }

[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace mts {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(NoAlloc, WarmDijkstraAllocatesNothing) {
  obs::set_metrics_enabled(false);  // phase scopes would record paths
  const auto wg = test::make_grid(20, 20);
  const NodeId source(0);
  const NodeId target(399);
  SearchSpace forward;
  SearchSpace reverse;
  DijkstraOptions to_target;
  to_target.target = target;
  dijkstra(forward, wg.g, wg.weights, source, to_target);  // sizes the workspaces
  reverse_dijkstra(reverse, wg.g, wg.weights, target);

  EXPECT_EQ(allocations_in([&] { dijkstra(forward, wg.g, wg.weights, source, to_target); }), 0u);
  EXPECT_EQ(allocations_in([&] { reverse_dijkstra(reverse, wg.g, wg.weights, target); }), 0u);

  // A Yen-style spur search: removed edges, banned nodes, goal bounds.
  EdgeFilter filter(wg.g.num_edges());
  filter.remove(wg.g.out_edges(source).front());
  std::vector<std::uint8_t> banned(wg.g.num_nodes(), 0);
  banned[21] = 1;
  DijkstraOptions spur = to_target;
  spur.filter = &filter;
  spur.banned_nodes = &banned;
  spur.goal_bounds = &reverse;
  spur.prune_bound = 2.0 * reverse.dist(source);
  spur.assume_valid_weights = true;
  dijkstra(forward, wg.g, wg.weights, source, spur);
  EXPECT_EQ(allocations_in([&] { dijkstra(forward, wg.g, wg.weights, source, spur); }), 0u);
  EXPECT_EQ(forward.dist(target), reverse.dist(source));
}

}  // namespace
}  // namespace mts
