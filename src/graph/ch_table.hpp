// Bucket-based many-to-many distance tables over a ContractionHierarchy
// (Knopp et al. 2007, the OSRM table approach).
//
// One backward upward search per target deposits (target-index, distance)
// entries in per-node buckets; one forward upward search per source then
// scans the buckets of every node it settles and minimizes
// d_forward(v) + bucket(v, t) over all meeting nodes v.  Cost is
// |S| + |T| upward searches — each touching a few hundred nodes — instead
// of |S| full Dijkstras, and the bucket scan replaces the |S|·|T|
// pairwise meets.
//
// The query object owns its buckets and workspace, so it is cheap to
// reuse across calls but must not be shared between threads (same
// contract as SearchSpace).  The hierarchy it borrows stays read-only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/budget.hpp"
#include "graph/contraction_hierarchy.hpp"

namespace mts {

class ChTableQuery {
 public:
  /// Borrows `ch`; the hierarchy must outlive the query object.
  explicit ChTableQuery(const ContractionHierarchy& ch);

  /// Exact shortest-path distances for every (source, target) pair,
  /// row-major: result[i * targets.size() + j] = dist(sources[i],
  /// targets[j]).  Unreachable pairs get kInfiniteDistance; a node paired
  /// with itself gets 0.  Each upward search charges its settled nodes to
  /// `budget` (nullptr = uncapped and uncounted) as distance work, like a
  /// CH route query, so caps and deadlines stop a table between searches.
  std::vector<double> table(std::span<const NodeId> sources, std::span<const NodeId> targets,
                            WorkBudget* budget = nullptr);

 private:
  struct BucketEntry {
    std::uint32_t target_index;
    double dist;
  };

  const ContractionHierarchy* ch_;
  std::vector<std::vector<BucketEntry>> buckets_;  // per node, cleared via touched_
  std::vector<std::uint32_t> touched_;
  ChSearchSpace ws_;
};

}  // namespace mts
