#include "graph/yen.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/check.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "obs/phase.hpp"

namespace mts {

namespace {

struct Candidate {
  Path path;
};

/// Heap order: true when `a` should be popped after `b`.  Primary key is
/// path length (shortest first); ties break on the lexicographic edge
/// sequence.  Without the tie-break, which of several tied-length
/// candidates becomes the k-th path — and therefore the paper's p* = 100th
/// path — would depend on heap internals (and thus on the standard-library
/// implementation and on candidate insertion order).
bool candidate_after(const Candidate& a, const Candidate& b) {
  if (a.path.length != b.path.length) return a.path.length > b.path.length;
  return std::lexicographical_compare(b.path.edges.begin(), b.path.edges.end(),
                                      a.path.edges.begin(), a.path.edges.end());
}

/// Min-heap of candidates on a plain vector.  std::pop_heap moves the top
/// element to the back, so popping hands out the Path by value without the
/// const_cast-from-top() hack std::priority_queue would force.
class CandidateHeap {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Starts keeping the n-th smallest candidate length as
  /// nth_smallest_length() (n = 0 keeps none): a max-heap of the n smallest
  /// lengths held, which push() maintains, so the bound costs O(log n) per
  /// push instead of a scan per read.  pop() ends the tracking.
  void track_nth_smallest(std::size_t n) {
    nth_ = n;
    smallest_.clear();
    for (const Candidate& c : heap_) offer(c.path.length);
  }

  /// The tracked n-th smallest candidate length, or kInfiniteDistance
  /// while fewer than n candidates are held (or nothing is tracked).  The
  /// next n accepted paths each pop the then-minimum while at least
  /// n - (pops so far) of the current n smallest are still in the heap, so
  /// every one of those pops is <= this value — an exact admission bound.
  [[nodiscard]] double nth_smallest_length() const {
    if (nth_ == 0 || smallest_.size() < nth_) return kInfiniteDistance;
    return smallest_.front();
  }

  void push(Candidate candidate) {
    offer(candidate.path.length);
    heap_.push_back(std::move(candidate));
    std::push_heap(heap_.begin(), heap_.end(), candidate_after);
    ++pushed_;
  }

  /// Removes and returns the shortest (tie-broken) candidate's path.
  Path pop() {
    MTS_DCHECK(!heap_.empty());
    nth_ = 0;
    std::pop_heap(heap_.begin(), heap_.end(), candidate_after);
    Path path = std::move(heap_.back().path);
    heap_.pop_back();
    ++popped_;
    return path;
  }

  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t popped() const { return popped_; }

 private:
  /// Adds one length to the tracked n smallest (a max-heap of <= nth_).
  void offer(double length) {
    if (nth_ == 0) return;
    if (smallest_.size() < nth_) {
      smallest_.push_back(length);
      std::push_heap(smallest_.begin(), smallest_.end());
    } else if (length < smallest_.front()) {
      std::pop_heap(smallest_.begin(), smallest_.end());
      smallest_.back() = length;
      std::push_heap(smallest_.begin(), smallest_.end());
    }
  }

  std::vector<Candidate> heap_;
  std::size_t nth_ = 0;            // tracked rank (0 = none)
  std::vector<double> smallest_;   // max-heap of the nth_ smallest lengths
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
};

/// Pads an admission bound by the same 1e-9 relative float margin the
/// oracle's tie_epsilon uses, so summation-order slack can never prune a
/// candidate an exact-arithmetic run would keep.
double padded(double bound) {
  if (bound == kInfiniteDistance) return bound;
  return bound + 1e-9 * (1.0 + std::abs(bound));
}

/// Shared state for Yen spur expansions: a scratch edge filter seeded from
/// the caller's base filter plus a scratch node-ban mask, both restored
/// after each spur search so allocations happen once per query.  Spur
/// searches run goal-directed against `reverse_tree` — the exact reverse
/// shortest-path distances to `target` under the base filter, which lower-
/// bound every spur search's remaining distance (spur filters only remove
/// more edges).  See DESIGN.md §9 for the pruning-exactness argument.
class SpurSearcher {
 public:
  SpurSearcher(const DiGraph& g, std::span<const double> weights, NodeId target,
               const EdgeFilter* base_filter, const SearchSpace& reverse_tree,
               SearchSpace& workspace, WorkBudget* budget)
      : g_(g),
        weights_(weights),
        target_(target),
        reverse_tree_(reverse_tree),
        workspace_(workspace),
        scratch_filter_(base_filter != nullptr ? *base_filter : EdgeFilter(g.num_edges())),
        banned_nodes_(g.num_nodes(), 0),
        budget_(budget) {}

  /// Expands every deviation of `base` (rooted at prefix positions
  /// [0, base.edges.size())) and pushes new simple-path candidates.
  /// `accepted` is the list of already-output paths (for edge bans);
  /// `needed` is how many more paths the caller still wants — it feeds the
  /// candidate-admission bound that lets hopeless spur searches be skipped
  /// (they still count as spur searches against the budget).
  void expand(const Path& base, const std::vector<Path>& accepted, CandidateHeap& candidates,
              std::unordered_set<std::uint64_t>& seen, std::size_t needed) {
    const std::vector<NodeId> base_nodes = path_nodes(g_, base);
    double root_length = 0.0;
    candidates.track_nth_smallest(needed);
    // shared_root_[a]: the last position i at which accepted[a] shares
    // base's first i edges and still has an i-th edge of its own, i.e. the
    // deviations whose spur must not take accepted[a]'s next edge are
    // exactly i <= shared_root_[a].  Accepted paths are non-empty.
    shared_root_.clear();
    for (const Path& p : accepted) {
      const auto common =
          std::mismatch(base.edges.begin(), base.edges.end(), p.edges.begin(), p.edges.end());
      const auto prefix = static_cast<std::size_t>(common.first - base.edges.begin());
      shared_root_.push_back(std::min(prefix, p.edges.size() - 1));
    }

    for (std::size_t i = 0; i < base.edges.size(); ++i) {
      const NodeId spur_node = base_nodes[i];
      // Nan/Limit have no safe emulation here (a silently truncated spur
      // sweep could certify a wrong exclusivity answer), so every armed
      // action escalates to a FaultInjected throw.
      MTS_FAULT_POINT("yen.spur");
      if (budget_ != nullptr) budget_->charge_spur_searches(1);

      // Admission bound: once the heap already holds `needed` candidates,
      // every future accepted path is at most the bound below, so any spur
      // whose best possible total exceeds it cannot change the output.
      const double admit = candidates.nth_smallest_length();
      // Fast path: skip the search entirely when even the ban-free reverse
      // distance busts the bound.  For a base that was itself accepted this
      // can only fire on margin edge cases (root + bound <= len(base) <=
      // admit by Yen's nondecreasing-acceptance invariant); the common kill
      // happens inside the bounded search below.
      const double spur_lower = reverse_tree_.dist(spur_node);
      if (spur_lower == kInfiniteDistance || root_length + spur_lower > padded(admit)) {
        ++searches_;
        ++pruned_;
        root_length += weights_[base.edges[i].value()];
        continue;
      }

      // Ban the next edge of every accepted path sharing this root prefix.
      std::vector<EdgeId> banned_edges;
      for (std::size_t a = 0; a < accepted.size(); ++a) {
        if (shared_root_[a] < i) continue;
        const EdgeId next = accepted[a].edges[i];
        if (!scratch_filter_.is_removed(next)) {
          scratch_filter_.remove(next);
          banned_edges.push_back(next);
        }
      }
      // Ban root nodes (all prefix nodes strictly before the spur node) so
      // spur paths cannot revisit them: keeps results simple (loopless).
      for (std::size_t j = 0; j < i; ++j) banned_nodes_[base_nodes[j].value()] = 1;

      DijkstraOptions spur_options;
      spur_options.target = target_;
      spur_options.filter = &scratch_filter_;
      spur_options.banned_nodes = &banned_nodes_;
      spur_options.goal_bounds = &reverse_tree_;
      spur_options.prune_bound =
          admit == kInfiniteDistance ? kInfiniteDistance : admit - root_length;
      spur_options.assume_valid_weights = true;
      spur_options.budget = budget_;
      dijkstra(workspace_, g_, weights_, spur_node, spur_options);
      ++searches_;
      static const obs::HistogramId kSpurEdges =
          obs::MetricsRegistry::instance().histogram("yen.spur_edges_scanned");
      obs::observe(kSpurEdges, static_cast<double>(workspace_.last.edges_scanned));

      auto spur = extract_path(g_, workspace_, spur_node, target_);
      if (!spur && workspace_.last.bound_pruned > 0) {
        // The bounded frontier died without reaching the target, and the
        // admission bound (not graph disconnection alone) cut it short:
        // this spur was pruned rather than exhausted.
        ++pruned_;
      }
      if (spur) {
        Path total;
        total.edges.reserve(i + spur->edges.size());
        total.edges.insert(total.edges.end(), base.edges.begin(),
                           base.edges.begin() + static_cast<std::ptrdiff_t>(i));
        total.edges.insert(total.edges.end(), spur->edges.begin(), spur->edges.end());
        total.length = root_length + spur->length;
        if (seen.insert(path_signature(total)).second) {
          candidates.push({std::move(total)});
        }
      }

      // Restore scratch state.
      for (std::size_t j = 0; j < i; ++j) banned_nodes_[base_nodes[j].value()] = 0;
      for (EdgeId e : banned_edges) scratch_filter_.restore(e);

      root_length += weights_[base.edges[i].value()];
    }
  }

  /// Spur searches attempted so far (performed + pruned).
  [[nodiscard]] std::size_t searches() const { return searches_; }
  /// How many of those the admission bound killed: skipped outright by the
  /// reverse-tree check, or run but cut off before reaching the target.
  [[nodiscard]] std::size_t pruned() const { return pruned_; }

 private:
  const DiGraph& g_;
  std::span<const double> weights_;
  NodeId target_;
  const SearchSpace& reverse_tree_;
  SearchSpace& workspace_;
  EdgeFilter scratch_filter_;
  std::vector<std::uint8_t> banned_nodes_;
  std::vector<std::size_t> shared_root_;  // per accepted path, see expand()
  WorkBudget* budget_ = nullptr;
  std::size_t searches_ = 0;
  std::size_t pruned_ = 0;
};

/// Flushes one Yen query's counters into the registry and its pruned
/// spurs into the budget on scope exit (the query has several return
/// paths; the budget's spur searches were charged one by one).
struct YenCounterFlush {
  const CandidateHeap& heap;
  const SpurSearcher& searcher;
  WorkBudget* budget = nullptr;

  ~YenCounterFlush() {
    if (budget != nullptr) budget->spurs_pruned += searcher.pruned();
    static const obs::CounterId kQueries = obs::MetricsRegistry::instance().counter("yen.queries");
    static const obs::CounterId kSpurs =
        obs::MetricsRegistry::instance().counter("yen.spur_searches");
    static const obs::CounterId kPruned =
        obs::MetricsRegistry::instance().counter("yen.spurs_pruned");
    static const obs::CounterId kPushed =
        obs::MetricsRegistry::instance().counter("yen.candidates_pushed");
    static const obs::CounterId kPopped =
        obs::MetricsRegistry::instance().counter("yen.candidates_popped");
    obs::add(kQueries);
    obs::add(kSpurs, searcher.searches());
    obs::add(kPruned, searcher.pruned());
    obs::add(kPushed, heap.pushed());
    obs::add(kPopped, heap.popped());
  }
};

/// Builds the query's reverse shortest-path tree (exact distances to
/// `target` under `filter`) in the thread's secondary workspace slot.
SearchSpace& build_reverse_tree(const DiGraph& g, std::span<const double> weights,
                                NodeId target, const EdgeFilter* filter, WorkBudget* budget) {
  SearchSpace& reverse_tree = thread_search_space(1);
  DijkstraOptions reverse_options;
  reverse_options.filter = filter;
  reverse_options.assume_valid_weights = true;  // validated by the query entry
  reverse_options.budget = budget;
  reverse_dijkstra(reverse_tree, g, weights, target, reverse_options);
  return reverse_tree;
}

}  // namespace

std::vector<Path> yen_ksp(const DiGraph& g, std::span<const double> weights, NodeId source,
                          NodeId target, std::size_t k, const YenOptions& options) {
  require(g.finalized(), "yen_ksp: graph not finalized");
  require(source.value() < g.num_nodes() && target.value() < g.num_nodes(),
          "yen_ksp: endpoint out of range");
  std::vector<Path> accepted;
  if (k == 0) return accepted;
  require(source != target, "yen_ksp: source == target (only the empty path exists)");
  const Path* first = options.first_path;
  require(first != nullptr || options.reverse_bounds == nullptr,
          "yen_ksp: reverse_bounds requires first_path");
  require(first == nullptr || (!first->empty() && g.edge_from(first->edges.front()) == source &&
                               g.edge_to(first->edges.back()) == target),
          "yen_ksp: first_path does not run source -> target");
  validate_weights(g, weights, "yen_ksp");

  obs::ScopedPhase phase("yen");
  // Caller-supplied bounds (CH/PHAST/CCH) replace the reverse tree; without
  // them the tree is built under the filter.
  const SearchSpace* bounds = options.reverse_bounds;
  if (bounds == nullptr) {
    bounds = &build_reverse_tree(g, weights, target, options.filter, options.budget);
  }
  if (first != nullptr) {
    accepted.push_back(*first);
  } else {
    // The first path falls out of the reverse tree: follow reverse parents
    // forward from the source (its length is recomputed as the forward-order
    // sum, bit-identical to a forward Dijkstra's accumulation).
    auto extracted = extract_reverse_path(g, *bounds, weights, source, target);
    if (!extracted) return accepted;
    accepted.push_back(std::move(*extracted));
  }

  SpurSearcher searcher(g, weights, target, options.filter, *bounds, thread_search_space(0),
                        options.budget);
  CandidateHeap candidates;
  std::unordered_set<std::uint64_t> seen;
  seen.insert(path_signature(accepted.front()));

  YenCounterFlush flush{candidates, searcher, options.budget};
  while (accepted.size() < k) {
    searcher.expand(accepted.back(), accepted, candidates, seen, k - accepted.size());
    if (candidates.empty()) break;
    accepted.push_back(candidates.pop());
#if defined(MTS_ENABLE_DCHECKS)
    accepted.back().check_invariants(g, weights);
#endif
  }
  return accepted;
}

}  // namespace mts
