#include "exp/table_runner.hpp"

#include <cstdio>
#include <iostream>
#include <memory>

#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "exp/checkpoint.hpp"
#include "graph/ch_assets.hpp"
#include "graph/yen.hpp"
#include "obs/phase.hpp"

namespace mts::exp {

using attack::Algorithm;
using attack::AttackOptions;
using attack::AttackResult;
using attack::AttackStatus;
using attack::CostType;
using attack::ForcePathCutProblem;
using attack::kAllAlgorithms;
using attack::kAllCostTypes;

namespace {

// Stream tags keeping the harness's RNG consumers on disjoint SplitMix64
// substreams of the one user-facing seed.
constexpr std::uint64_t kScenarioStream = 0xa5a5a5a5ULL;
constexpr std::uint64_t kThresholdStream = 0x5c5c5c5cULL;

}  // namespace

std::string checkpoint_fingerprint(const RunConfig& config) {
  char scale[40];
  std::snprintf(scale, sizeof scale, "%.17g", config.scale);
  std::string fp = citygen::to_string(config.city);
  fp += '|';
  fp += attack::to_string(config.weight);
  fp += '|';
  fp += scale;
  fp += "|trials=" + std::to_string(config.trials);
  fp += "|rank=" + std::to_string(config.path_rank);
  fp += "|seed=" + std::to_string(config.seed);
  fp += timing_enabled() ? "|dt=0" : "|dt=1";
  fp += "|edges=" + std::to_string(config.work_budget.max_edges_scanned);
  fp += "|pivots=" + std::to_string(config.work_budget.max_lp_pivots);
  fp += "|spurs=" + std::to_string(config.work_budget.max_spur_searches);
  return fp;
}

CityTableResult run_city_table(const RunConfig& config) {
  const auto network = citygen::generate_city(config.city, config.scale, config.seed);
  const auto weights = attack::make_weights(network, config.weight);
  ScenarioOptions scenario_options;
  scenario_options.path_rank = config.path_rank;
  const auto scenarios = sample_scenarios(network, weights, config.trials,
                                          derive_seed(config.seed, {kScenarioStream}),
                                          scenario_options);
  return run_city_table_on(network, scenarios, config);
}

CityTableResult run_city_table_on(const osm::RoadNetwork& network,
                                  const std::vector<Scenario>& scenarios,
                                  const RunConfig& config) {
  CityTableResult result;
  result.config = config;
  result.metrics = compute_network_metrics(network.graph());
  result.scenarios_run = static_cast<int>(scenarios.size());

  const auto weights = attack::make_weights(network, config.weight);
  std::vector<std::vector<double>> costs;
  costs.reserve(kNumCostTypes);
  for (CostType cost_type : kAllCostTypes) {
    costs.push_back(attack::make_costs(network, cost_type));
  }

  // CH/CCH bundle for this (graph, weights) pair, built once and shared
  // read-only by every cell's oracle for its tie certifications (MTS_CH=0
  // opts out; the answers are identical either way, see DESIGN.md §14).
  // Scenario sampling above deliberately does not use it: it ran before
  // this point on resumable runs' first pass, and keeping it on the plain
  // Yen path pins the scenario stream byte-for-byte.
  std::unique_ptr<ChAssets> ch_assets;
  if (ch_enabled()) {
    obs::ScopedPhase ch_phase("ch_build");
    ch_assets = std::make_unique<ChAssets>(ChAssets::build(network.graph(), weights));
  }

  // One immutable problem per (scenario, cost) cell column, shared by the
  // four algorithm tasks.  ForcePathCutProblem is safe to share across
  // threads as const: run_attack / verify_attack / the oracle only read it.
  std::vector<ForcePathCutProblem> problems;
  problems.reserve(scenarios.size() * kNumCostTypes);
  for (const Scenario& scenario : scenarios) {
    for (std::size_t ci = 0; ci < kNumCostTypes; ++ci) {
      ForcePathCutProblem problem = make_problem(network.graph(), weights, costs[ci], scenario);
      problem.ch = ch_assets.get();
      problems.push_back(std::move(problem));
    }
  }
  const std::vector<ForcePathCutProblem>& shared_problems = problems;

  // Checkpointing: a journal (when configured) collects every cleanly
  // completed cell as it finishes; a resume folds journaled cells back in
  // without recomputing them.  Quarantined cells are never journaled, so a
  // resumed run retries exactly the missing + previously poisoned cells.
  // Journal task ids are keyed on the scenario's ORIGINAL trial index, not
  // its position in `scenarios`: a trial quarantined during sampling shifts
  // the survivors down, and position-keyed ids would replay the wrong
  // trial's cells on resume.
  const std::string fingerprint = checkpoint_fingerprint(config);
  std::unordered_map<std::uint64_t, CellRecord> completed;
  if (config.resume) {
    require(!config.checkpoint_path.empty(), "table: resume requires a checkpoint journal path");
    completed = CheckpointJournal::load(config.checkpoint_path, fingerprint);
  }
  std::unique_ptr<CheckpointJournal> journal;
  if (!config.checkpoint_path.empty()) {
    journal = std::make_unique<CheckpointJournal>(config.checkpoint_path, fingerprint);
  }

  // Every (scenario, cost, algorithm) task is independent: it gets its own
  // SplitMix64-derived RNG stream and writes only its own outcome slot.
  // The slots carry no MTS_GUARDED_BY annotation (DESIGN.md §11) on
  // purpose: writes are index-disjoint, and parallel_for's join barrier
  // (core/thread_pool, annotated) publishes them to the reduction below.
  // `record` carries exactly the values the reduction folds, so a resumed
  // cell (record read back from the journal) reduces bit-identically.
  struct TaskOutcome {
    CellRecord record;
    bool quarantined = false;
    std::string error;  // taxonomy string when quarantined
  };
  const std::size_t tasks_per_scenario = kNumCostTypes * kNumAlgorithms;
  std::vector<TaskOutcome> outcomes(scenarios.size() * tasks_per_scenario);
  parallel_for(outcomes.size(), [&](std::size_t t) {
    // Root phase: attribution is the same whether this cell runs on a pool
    // worker or inline on the calling thread.
    obs::ScopedPhase phase("cell", obs::PhaseKind::Root);
    TaskOutcome& outcome = outcomes[t];
    const std::size_t si = t / tasks_per_scenario;
    const std::size_t trial = scenarios[si].trial;
    const std::size_t stable_task = trial * tasks_per_scenario + t % tasks_per_scenario;
    if (config.resume) {
      const auto it = completed.find(stable_task);
      if (it != completed.end()) {
        outcome.record = it->second;
        // Registered lazily so non-resume runs never learn this counter.
        static const obs::CounterId kResumed =
            obs::MetricsRegistry::instance().counter("exp.cells_resumed");
        obs::add(kResumed);
        return;
      }
    }
    static const obs::CounterId kCells = obs::MetricsRegistry::instance().counter("exp.cells_run");
    obs::add(kCells);
    const std::size_t ci = (t % tasks_per_scenario) / kNumAlgorithms;
    const std::size_t ai = t % kNumAlgorithms;
    const ForcePathCutProblem& problem = shared_problems[si * kNumCostTypes + ci];

    // Any escape from one cell — injected fault, invariant violation,
    // budget bug, bad_alloc — quarantines that cell and leaves the rest of
    // the grid (and the journal) intact.
    try {
      MTS_FAULT_POINT("pool.task");
      AttackOptions options;
      options.rng_seed = derive_seed(config.seed, {trial, ci, ai});
      // Each capped cell charges its own copy; uncapped cells charge none.
      WorkBudget budget = config.work_budget;
      if (budget.limited()) options.budget = &budget;
      const AttackResult attack = run_attack(kAllAlgorithms[ai], problem, options);
      CellRecord& record = outcome.record;
      record.task = stable_task;
      record.status = to_string(attack.status);
      record.fallback_used = attack.fallback_used;
      record.fallback_reason = attack.fallback_reason;
      record.seconds = attack.seconds;
      record.removed = attack.num_removed();
      record.total_cost = attack.total_cost;
      if (attack.status == AttackStatus::Success) {
        const auto verdict = attack::verify_attack(problem, attack.removed_edges);
        record.verified = verdict.ok;
        if (!verdict.ok) record.verify_reason = verdict.reason;
      }
      if (journal != nullptr) journal->append(record);
    } catch (...) {
      outcome.quarantined = true;
      outcome.error = current_exception_taxonomy();
    }
  });

  // Deterministic reduction: outcomes fold into CellStats in trial order,
  // so tables and JSON are bit-identical at any thread count (and to the
  // serial MTS_THREADS=1 run).  Diagnostics print here, in the same order.
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    const std::size_t ci = (t % tasks_per_scenario) / kNumAlgorithms;
    const std::size_t ai = t % kNumAlgorithms;
    const Algorithm algorithm = kAllAlgorithms[ai];
    const TaskOutcome& outcome = outcomes[t];
    auto& cell = result.cells[ai][ci];
    if (outcome.quarantined) {
      ++cell.quarantined;
      ++cell.attack_failures;
      cell.errors.push_back(outcome.error);
      const std::size_t stable_task =
          scenarios[t / tasks_per_scenario].trial * tasks_per_scenario + t % tasks_per_scenario;
      std::cerr << "[quarantine] " << to_string(algorithm) << " task " << stable_task << ": "
                << outcome.error << '\n';
      continue;
    }
    const CellRecord& record = outcome.record;
    if (record.fallback_used) {
      ++cell.fallbacks;
      std::cerr << "[fallback] " << to_string(algorithm) << ": " << record.fallback_reason << '\n';
    }
    if (record.status != "success") {
      ++cell.attack_failures;
      std::cerr << "[attack] " << to_string(algorithm) << " status: " << record.status << '\n';
    } else if (!record.verified) {
      ++cell.verification_failures;
      std::cerr << "[verify] " << to_string(algorithm) << " failed: " << record.verify_reason
                << '\n';
    } else {
      cell.add(record.seconds, static_cast<double>(record.removed), record.total_cost);
    }
  }
  return result;
}

Table render_city_table(const CityTableResult& result) {
  const std::string title = std::string(citygen::to_string(result.config.city)) +
                            ", Weight Type: " + attack::to_string(result.config.weight) + " (" +
                            std::to_string(result.scenarios_run) + " experiments)";
  std::vector<std::string> headers = {"Algorithm"};
  for (CostType cost_type : kAllCostTypes) {
    const std::string prefix = attack::to_string(cost_type);
    headers.push_back(prefix + " Runtime");
    headers.push_back(prefix + " ANER");
    headers.push_back(prefix + " ACRE");
  }
  Table table(title, headers);
  for (Algorithm algorithm : kAllAlgorithms) {
    std::vector<std::string> row = {to_string(algorithm)};
    for (CostType cost_type : kAllCostTypes) {
      const auto& cell = result.cell(algorithm, cost_type);
      row.push_back(format_fixed(cell.avg_runtime(), 4));
      row.push_back(format_fixed(cell.aner(), 2));
      row.push_back(format_fixed(cell.acre(), 2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Table render_city_table_detailed(const CityTableResult& result) {
  const std::string title = std::string(citygen::to_string(result.config.city)) +
                            ", Weight Type: " + attack::to_string(result.config.weight) +
                            " (detailed)";
  Table table(title, {"Algorithm", "Cost", "Runtime Mean", "Runtime Stddev", "ANER Mean",
                      "ANER Stddev", "ACRE Mean", "ACRE Stddev", "N", "Attack Failures",
                      "Verify Failures"});
  for (Algorithm algorithm : kAllAlgorithms) {
    for (CostType cost_type : kAllCostTypes) {
      const auto& cell = result.cell(algorithm, cost_type);
      table.add_row({to_string(algorithm), to_string(cost_type),
                     format_fixed(cell.runtime.mean(), 5), format_fixed(cell.runtime.stddev(), 5),
                     format_fixed(cell.edges_removed.mean(), 2),
                     format_fixed(cell.edges_removed.stddev(), 2),
                     format_fixed(cell.cost.mean(), 2), format_fixed(cell.cost.stddev(), 2),
                     std::to_string(cell.n), std::to_string(cell.attack_failures),
                     std::to_string(cell.verification_failures)});
    }
  }
  return table;
}

WeightSummary summarize(const CityTableResult& result) {
  WeightSummary summary;
  int n = 0;
  for (Algorithm algorithm : kAllAlgorithms) {
    for (CostType cost_type : kAllCostTypes) {
      const auto& cell = result.cell(algorithm, cost_type);
      if (cell.n == 0) continue;
      summary.aner += cell.aner();
      summary.acre += cell.acre();
      ++n;
    }
  }
  if (n > 0) {
    summary.aner /= n;
    summary.acre /= n;
  }
  return summary;
}

ThresholdRow run_threshold_experiment(citygen::City city, double scale, int trials,
                                      std::uint64_t seed) {
  ThresholdRow row;
  row.city = city;
  const auto network = citygen::generate_city(city, scale, seed);
  const auto weights = attack::make_weights(network, attack::WeightType::Time);

  ScenarioOptions options;
  options.path_rank = 200;  // one Yen run yields both the 100th and 200th
  const auto scenarios = sample_scenarios(network, weights, trials,
                                          derive_seed(seed, {kThresholdStream}), options);

  for (const Scenario& scenario : scenarios) {
    const double base = scenario.shortest_length;
    require(base > 0.0, "threshold: zero-length shortest path");
    const double len100 = scenario.prefix[99].length;
    const double len200 = scenario.p_star.length;
    row.avg_increase_100th += (len100 / base - 1.0) * 100.0;
    row.avg_increase_200th += (len200 / base - 1.0) * 100.0;
    ++row.n;
  }
  if (row.n > 0) {
    row.avg_increase_100th /= row.n;
    row.avg_increase_200th /= row.n;
  }
  return row;
}

}  // namespace mts::exp
