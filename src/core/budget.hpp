// The work meter: one object per search task that both caps its work and
// counts it.
//
// Wall-clock deadlines make runs machine-dependent; the harness instead caps
// the exact work counters the pipeline already tracks.  A WorkBudget is
// owned by one attack task (or one daemon request), threaded by pointer
// through every search engine — Dijkstra, Yen, the simplex, the oracle, the
// CH query, PHAST, ChTableQuery and CchMetric — and charged by each at one
// checkpoint (DESIGN.md §10).  Distance work is defined here once:
// `edges_scanned` (Dijkstra, per settled node) plus `ch_nodes_settled`
// (CH searches, per search), and the `edges=` cap applies to that sum.
// Exceeding any cap throws BudgetExhausted, which run_attack() converts
// into a structured AttackStatus::BudgetExhausted — the same outcome on
// every machine and thread count.  The counts feed the daemon's slow-query
// log lines and request spans (DESIGN.md §13).
//
// The serving layer (`mts routed`) additionally arms a wall-clock deadline on
// the same budget object: arm_deadline() makes every charge checkpoint also
// probe (every kDeadlineCheckInterval charges, to keep clock reads off the
// per-node path) whether the request ran past its deadline, throwing
// DeadlineExceeded.  Deadlines are deliberately NOT parsed from MTS_BUDGET —
// batch experiment output must stay machine-independent; only the daemon,
// whose responses are already latency-sensitive, arms them (DESIGN.md §15).
//
// A null budget pointer means nothing is capped and nothing is counted, and
// costs one pointer test per checkpoint.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/error.hpp"
#include "core/timer.hpp"

namespace mts {

/// Thrown by WorkBudget::charge_* when a cap is exceeded.  Callers that
/// degrade gracefully catch it at the attack boundary; everything between
/// must be exception-safe, not exception-aware.
class BudgetExhausted : public Error {
 public:
  using Error::Error;
};

/// Thrown by WorkBudget charge checkpoints when an armed wall-clock deadline
/// has passed.  Distinct from BudgetExhausted so the serving layer can map it
/// to the `deadline-exceeded` wire taxonomy (retryable by clients) while
/// budget exhaustion stays a deterministic, non-retryable outcome.
class DeadlineExceeded : public Error {
 public:
  using Error::Error;
};

/// Deterministic work caps plus the work charged against them.  Caps of 0
/// mean unlimited.  Not thread-safe: one budget per task.
struct WorkBudget {
  /// A deadline probe reads the clock only once per this many charge calls;
  /// the first charge always probes, so an already-expired request fails on
  /// its first checkpoint instead of after a full interval.
  static constexpr std::uint64_t kDeadlineCheckInterval = 64;

  /// Cap on distance work (edges_scanned + ch_nodes_settled).
  std::uint64_t max_edges_scanned = 0;
  std::uint64_t max_lp_pivots = 0;
  std::uint64_t max_spur_searches = 0;

  std::uint64_t dijkstra_runs = 0;
  std::uint64_t nodes_settled = 0;     ///< by Dijkstra
  std::uint64_t edges_scanned = 0;     ///< by Dijkstra
  std::uint64_t spur_searches = 0;     ///< Yen deviations, pruned or searched
  std::uint64_t spurs_pruned = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t lp_pivots = 0;
  std::uint64_t ch_queries = 0;        ///< CH point-to-point queries
  std::uint64_t ch_nodes_settled = 0;  ///< by CH queries, PHAST, buckets and CCH

  /// True when at least one cap (or a deadline) is set.
  [[nodiscard]] bool limited() const {
    return max_edges_scanned != 0 || max_lp_pivots != 0 ||
           max_spur_searches != 0 || deadline_clock_ != nullptr;
  }

  /// The quantity the `edges=` cap bounds.
  [[nodiscard]] std::uint64_t distance_work() const { return edges_scanned + ch_nodes_settled; }

  /// Arms a wall-clock deadline at absolute instant `deadline_s` on `clock`
  /// (which must outlive the budget).  Charge checkpoints then throw
  /// DeadlineExceeded once the clock passes the deadline.
  void arm_deadline(const Stopwatch* clock, double deadline_s) {
    deadline_clock_ = clock;
    deadline_s_ = deadline_s;
    deadline_ticks_ = 0;
  }

  /// True when an armed deadline has already passed.  Cheap enough for a
  /// per-request pre-execution probe (one clock read); false when disarmed.
  [[nodiscard]] bool deadline_expired() const {
    return deadline_clock_ != nullptr && deadline_clock_->seconds() >= deadline_s_;
  }

  void charge_edges_scanned(std::uint64_t n) {
    check_deadline();
    edges_scanned += n;
    check_distance_work();
  }

  void charge_ch_nodes_settled(std::uint64_t n) {
    check_deadline();
    ch_nodes_settled += n;
    check_distance_work();
  }

  void charge_lp_pivots(std::uint64_t n) {
    check_deadline();
    lp_pivots += n;
    if (max_lp_pivots != 0 && lp_pivots > max_lp_pivots) {
      exhausted("lp_pivots", max_lp_pivots);
    }
  }

  void charge_spur_searches(std::uint64_t n) {
    check_deadline();
    spur_searches += n;
    if (max_spur_searches != 0 && spur_searches > max_spur_searches) {
      exhausted("spur_searches", max_spur_searches);
    }
  }

  /// Parses "edges=N,pivots=N,spurs=N" (any non-empty subset, any order).
  /// Throws InvalidInput on unknown keys or non-positive counts.
  static WorkBudget parse(std::string_view spec);

  /// Budget from MTS_BUDGET; all-unlimited when unset or empty.
  static WorkBudget from_environment();

 private:
  void check_deadline() {
    if (deadline_clock_ == nullptr) return;
    if ((deadline_ticks_++ % kDeadlineCheckInterval) != 0) return;
    if (deadline_clock_->seconds() >= deadline_s_) expired();
  }

  void check_distance_work() const {
    if (max_edges_scanned != 0 && distance_work() > max_edges_scanned) {
      exhausted("edges_scanned", max_edges_scanned);
    }
  }

  [[noreturn]] static void exhausted(const char* counter, std::uint64_t cap);
  [[noreturn]] static void expired();

  const Stopwatch* deadline_clock_ = nullptr;  ///< nullptr = no deadline
  double deadline_s_ = 0.0;                    ///< absolute, on deadline_clock_
  std::uint64_t deadline_ticks_ = 0;
};

}  // namespace mts
