// Reproduction of the paper's evaluation tables.
//
// One CityTable run regenerates a Table II-VIII style grid: for one city
// and weight type, the 4 algorithms x 3 cost models x {Avg Runtime, ANER,
// ACRE} cells averaged over sampled (source, hospital) scenarios, each
// attack independently verified.
#pragma once

#include <string>
#include <vector>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "citygen/spec.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "exp/scenario.hpp"
#include "graph/metrics.hpp"

namespace mts::exp {

struct RunConfig {
  citygen::City city = citygen::City::Boston;
  double scale = 1.0;
  attack::WeightType weight = attack::WeightType::Length;
  int trials = 12;       // scenarios (paper: 40 = 10 sources x 4 hospitals)
  int path_rank = 100;   // p* = path_rank-th shortest path
  std::uint64_t seed = 7;
  /// When non-empty, each cleanly completed cell is appended to this JSONL
  /// journal as it finishes (survives a kill mid-grid).
  std::string checkpoint_path;
  /// With resume=true, cells already present in the journal are folded in
  /// from their records instead of being recomputed; only missing (and
  /// previously quarantined) cells run.  Requires checkpoint_path.
  bool resume = false;
  /// Per-attack deterministic work caps (all-zero = unlimited); each cell
  /// charges its own copy through AttackOptions::budget.
  WorkBudget work_budget;
};

/// Pins every RunConfig knob that changes cell results (not checkpointing
/// knobs themselves).  Journals written under a different fingerprint are
/// rejected at load time.
std::string checkpoint_fingerprint(const RunConfig& config);

/// Aggregate over scenarios for one (algorithm, cost) cell.  The paper
/// reports plain averages; standard deviations are kept alongside so the
/// CSV output exposes run-to-run spread.
struct CellStats {
  RunningStats runtime;
  RunningStats edges_removed;
  RunningStats cost;
  int n = 0;
  /// Attack honestly reported a non-Success status (budget infeasible, no
  /// path, iteration limit) — an expected experimental outcome.
  int attack_failures = 0;
  /// Attack claimed Success but the independent verifier rejected the cut.
  /// Any nonzero value here is a library bug and must stay loud.
  int verification_failures = 0;
  /// Cell threw (fault injection, invariant violation, OOM): isolated from
  /// the rest of the grid and counted into attack_failures as well.
  int quarantined = 0;
  /// Cells where LP-PathCover degraded to the greedy cover (lp/covering).
  int fallbacks = 0;
  /// Error-taxonomy strings of quarantined cells, in scenario order.
  std::vector<std::string> errors;

  void add(double runtime_s, double removed, double cut_cost) {
    runtime.add(runtime_s);
    edges_removed.add(removed);
    cost.add(cut_cost);
    ++n;
  }
  [[nodiscard]] double avg_runtime() const { return runtime.mean(); }
  [[nodiscard]] double aner() const { return edges_removed.mean(); }
  [[nodiscard]] double acre() const { return cost.mean(); }
};

inline constexpr std::size_t kNumAlgorithms = 4;
inline constexpr std::size_t kNumCostTypes = 3;

struct CityTableResult {
  RunConfig config;
  NetworkMetrics metrics;
  CellStats cells[kNumAlgorithms][kNumCostTypes];
  int scenarios_run = 0;

  [[nodiscard]] const CellStats& cell(attack::Algorithm a, attack::CostType c) const {
    return cells[static_cast<std::size_t>(a)][static_cast<std::size_t>(c)];
  }
};

/// Runs the full grid for one city + weight type.
CityTableResult run_city_table(const RunConfig& config);

/// Same, on an already-generated network and scenario set (lets several
/// tables share one expensive Yen pass).
CityTableResult run_city_table_on(const osm::RoadNetwork& network,
                                  const std::vector<Scenario>& scenarios,
                                  const RunConfig& config);

/// Paper-style rendering: one row per algorithm, three cost blocks.
Table render_city_table(const CityTableResult& result);

/// CSV-oriented rendering with mean and stddev per metric.
Table render_city_table_detailed(const CityTableResult& result);

/// Table IX row: ANER/ACRE averaged over the three cost types.
struct WeightSummary {
  double aner = 0.0;
  double acre = 0.0;
};
WeightSummary summarize(const CityTableResult& result);

/// Table X: average % length increase from the shortest to the k-th path.
struct ThresholdRow {
  citygen::City city;
  double avg_increase_100th = 0.0;  // percent
  double avg_increase_200th = 0.0;  // percent
  int n = 0;
};
ThresholdRow run_threshold_experiment(citygen::City city, double scale, int trials,
                                      std::uint64_t seed);

}  // namespace mts::exp
