// The two table workloads: Force Path Cut grids as the paper's Tables II-VIII
// build them (4 algorithms x 3 cost models per sampled scenario).
//
// A run repeats rounds until the time budget is spent.  Each round samples a
// fresh batch of scenarios from the run seed and attacks it with
// exp::run_city_table_on, so one run averages over many scenarios instead of
// riding on a handful of expensive ones.  Between rounds, outside the timed
// window, every cut of the round is recomputed with attack::run_attack on the
// plain Dijkstra path (no CH assets, so an engine independent of the grid's),
// re-checked with attack::verify_attack, and folded into per-cell aggregates
// that must equal the grid's bit for bit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <utility>
#include <string>
#include <vector>

#include "attack/algorithms.hpp"
#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "bench.hpp"
#include "citygen/generate.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "exp/scenario.hpp"
#include "exp/table_runner.hpp"
#include "graph/ch_assets.hpp"

namespace perfbench {

namespace {

using mts::attack::AttackStatus;
using mts::exp::CityTableResult;
using mts::exp::Scenario;

struct TableSpec {
  const char* name;
  mts::citygen::City city;
  mts::attack::WeightType weight;
  int batch;  // scenarios sampled per round
};

// Boston/LENGTH (Table II) is LP- and Yen-bound; Chicago/TIME (Table VII) is
// bound by CCH masked distance checks.  Batches keep one round short enough
// that a run holds several, so the time budget, not the batch, sets the work.
constexpr TableSpec kTables[] = {
    {"table_boston_length", mts::citygen::City::Boston, mts::attack::WeightType::Length, 24},
    {"table_chicago_time", mts::citygen::City::Chicago, mts::attack::WeightType::Time, 8},
};

// The map is fixed (the repository's default city seed); the run seed picks
// the scenarios, which are the workload's inputs.
constexpr std::uint64_t kCitySeed = 7;
constexpr double kScale = 1.0;
constexpr int kPathRank = 100;
constexpr int kSetupReps = 11;  // before the first round
// After each round, off the clock, set-up is re-timed for at least this
// share of the round's time (and at least kSetupRepsPerRound times).
constexpr double kSetupShareOfRound = 0.07;
constexpr int kSetupRepsPerRound = 5;
constexpr std::uint64_t kRoundStream = 0x726f756eULL;     // "roun"
constexpr std::uint64_t kScenarioStream = 0xa5a5a5a5ULL;  // as exp::run_city_table
constexpr std::size_t kCellsPerScenario = mts::exp::kNumAlgorithms * mts::exp::kNumCostTypes;

struct Round {
  std::uint64_t seed = 0;
  std::vector<Scenario> scenarios;
  CityTableResult result;
  double seconds = 0.0;  // sample_scenarios start -> run_city_table_on return
};

/// One replayed cell: the cut recomputed outside the harness and re-checked.
struct CellReplay {
  AttackStatus status = AttackStatus::IterationLimit;
  std::size_t removed = 0;
  double cost = 0.0;
  bool verified = false;
  double attack_s = 0.0;
  double verify_s = 0.0;
};

mts::exp::RunConfig round_config(const TableSpec& spec, const Round& round) {
  mts::exp::RunConfig config;
  config.city = spec.city;
  config.weight = spec.weight;
  config.scale = kScale;
  config.trials = spec.batch;
  config.path_rank = kPathRank;
  config.seed = round.seed;
  return config;
}

std::vector<Scenario> sample(const TableSpec& spec, const mts::osm::RoadNetwork& network,
                             const std::vector<double>& weights, std::uint64_t round_seed) {
  mts::exp::ScenarioOptions options;
  options.path_rank = kPathRank;
  return mts::exp::sample_scenarios(network, weights, spec.batch,
                                    mts::derive_seed(round_seed, {kScenarioStream}), options);
}

/// Recomputes and verifies every cell of `round` in the grid's task order
/// (scenario-major, then cost model, then algorithm), with the same per-cell
/// RNG streams.  `assets` null selects the plain Dijkstra/Yen path.
std::vector<CellReplay> replay_round(const Round& round, const mts::osm::RoadNetwork& network,
                                     const std::vector<double>& weights,
                                     const std::vector<std::vector<double>>& costs,
                                     const mts::ChAssets* assets, bool plant_wrong_answer) {
  std::vector<mts::attack::ForcePathCutProblem> problems;
  for (const Scenario& scenario : round.scenarios) {
    for (std::size_t ci = 0; ci < mts::exp::kNumCostTypes; ++ci) {
      mts::attack::ForcePathCutProblem problem;
      problem.graph = &network.graph();
      problem.weights = weights;
      problem.costs = costs[ci];
      problem.source = scenario.source;
      problem.target = scenario.target;
      problem.p_star = scenario.p_star;
      problem.seed_paths = scenario.prefix;
      problem.ch = assets;
      problems.push_back(std::move(problem));
    }
  }
  std::vector<CellReplay> out(round.scenarios.size() * kCellsPerScenario);
  std::atomic<bool> planted{!plant_wrong_answer};
  mts::parallel_for(out.size(), [&](std::size_t t) {
    const std::size_t si = t / kCellsPerScenario;
    const std::size_t ci = (t % kCellsPerScenario) / mts::exp::kNumAlgorithms;
    const std::size_t ai = t % mts::exp::kNumAlgorithms;
    const auto& problem = problems[si * mts::exp::kNumCostTypes + ci];

    mts::attack::AttackOptions options;
    options.rng_seed = mts::derive_seed(round.seed, {round.scenarios[si].trial, ci, ai});
    CellReplay& cell = out[t];
    const auto attack_start = Clock::now();
    auto result = mts::attack::run_attack(mts::attack::kAllAlgorithms[ai], problem, options);
    cell.attack_s = seconds_since(attack_start);
    cell.status = result.status;
    cell.removed = result.num_removed();
    cell.cost = result.total_cost;
    if (result.status != AttackStatus::Success) return;
    // p* is the 100th shortest path, so an empty cut can never force it.
    if (!planted.exchange(true)) result.removed_edges.clear();
    const auto verify_start = Clock::now();
    cell.verified = mts::attack::verify_attack(problem, result.removed_edges).ok;
    cell.verify_s = seconds_since(verify_start);
  });
  return out;
}

/// Folds a round's replayed cells exactly as the grid folds its outcomes and
/// reports every (algorithm, cost) cell whose aggregate differs.
void check_round(const Round& round, const std::vector<CellReplay>& cells, std::size_t r,
                 Outcome& outcome) {
  for (std::size_t ai = 0; ai < mts::exp::kNumAlgorithms; ++ai) {
    for (std::size_t ci = 0; ci < mts::exp::kNumCostTypes; ++ci) {
      mts::RunningStats removed;
      mts::RunningStats cost;
      int attack_failures = 0;
      for (std::size_t si = 0; si < round.scenarios.size(); ++si) {
        const CellReplay& cell =
            cells[si * kCellsPerScenario + ci * mts::exp::kNumAlgorithms + ai];
        if (cell.status != AttackStatus::Success) {
          ++attack_failures;
          continue;
        }
        if (!cell.verified) {
          outcome.fail("round " + std::to_string(r) + ": verify_attack rejected a " +
                       mts::attack::to_string(mts::attack::kAllAlgorithms[ai]) + " cut");
          continue;
        }
        removed.add(static_cast<double>(cell.removed));
        cost.add(cell.cost);
      }
      const auto& grid = round.result.cells[ai][ci];
      if (grid.n != static_cast<int>(removed.count()) || grid.attack_failures != attack_failures ||
          grid.edges_removed.mean() != removed.mean() || grid.cost.mean() != cost.mean()) {
        outcome.fail("round " + std::to_string(r) + ": grid cell " +
                     mts::attack::to_string(mts::attack::kAllAlgorithms[ai]) + "/" +
                     mts::attack::to_string(mts::attack::kAllCostTypes[ci]) +
                     " differs from the replayed cuts");
      }
    }
  }
}

std::uint64_t grid_failures(const CityTableResult& result) {
  std::uint64_t failures = 0;
  for (const auto& row : result.cells) {
    for (const auto& cell : row) {
      // attack_failures already includes quarantined cells.
      failures += static_cast<std::uint64_t>(cell.attack_failures + cell.verification_failures);
    }
  }
  return failures;
}

std::uint64_t scenario_digest(const Round& round, std::uint64_t hash) {
  for (const Scenario& s : round.scenarios) {
    std::string key = std::to_string(s.source.value()) + ">" + std::to_string(s.target.value());
    for (const auto e : s.p_star.edges) key += "," + std::to_string(e.value());
    hash = fnv1a(key + ";", hash);
  }
  return hash;
}

Round run_round(const TableSpec& spec, const mts::osm::RoadNetwork& network,
                const std::vector<double>& weights, std::uint64_t seed) {
  Round round;
  round.seed = seed;
  const auto start = Clock::now();
  round.scenarios = sample(spec, network, weights, round.seed);
  round.result = mts::exp::run_city_table_on(network, round.scenarios, round_config(spec, round));
  round.seconds = seconds_since(start);
  return round;
}

}  // namespace

Outcome run_table_workload(const Args& args) {
  const TableSpec* spec = nullptr;
  for (const TableSpec& candidate : kTables) {
    if (args.workload == candidate.name) spec = &candidate;
  }
  Outcome outcome;
  const std::size_t threads = mts::num_threads();

  // Set-up: what every table pays before its first scenario.  It takes a
  // few milliseconds, and single-core speed on a shared host flips between
  // modes within a second, so set-up is re-timed between rounds and the
  // median covers the whole run.
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    const auto start = Clock::now();
    auto network = mts::citygen::generate_city(spec->city, kScale, kCitySeed);
    auto weights = mts::attack::make_weights(network, spec->weight);
    setup_s.push_back(seconds_since(start));
    return std::make_pair(std::move(network), std::move(weights));
  };
  for (int rep = 1; rep < kSetupReps; ++rep) (void)time_setup();
  const auto [network, weights] = time_setup();
  std::vector<std::vector<double>> costs;
  for (const auto cost_type : mts::attack::kAllCostTypes) {
    costs.push_back(mts::attack::make_costs(network, cost_type));
  }

  // Timed window: whole rounds until the budget is spent.  Each round's
  // cuts are re-checked right after it, off the clock, so memory stays one
  // round deep however many rounds fit.
  std::optional<Round> first;
  std::vector<double> round_rate;
  std::vector<double> round_ms;
  std::uint64_t digest = fnv1a("");
  double window_s = 0.0;
  bool plant = args.plant_wrong_answer;
  for (std::size_t r = 0; r == 0 || window_s < args.seconds; ++r) {
    Round round = run_round(*spec, network, weights,
                            mts::derive_seed(args.seed, {kRoundStream, r}));
    const std::size_t cells = round.scenarios.size() * kCellsPerScenario;
    window_s += round.seconds;
    outcome.attempted += cells;
    round_rate.push_back(static_cast<double>(cells) / round.seconds);
    round_ms.push_back(1e3 * round.seconds);
    digest = scenario_digest(round, digest);

    if (round.scenarios.size() != static_cast<std::size_t>(spec->batch)) {
      outcome.fail("round " + std::to_string(r) + ": sampled " +
                   std::to_string(round.scenarios.size()) + " scenarios, wanted " +
                   std::to_string(spec->batch));
    }
    for (std::uint64_t i = grid_failures(round.result); i > 0; --i) {
      outcome.fail("round " + std::to_string(r) + ": the grid reported a failed cell");
    }
    check_round(round, replay_round(round, network, weights, costs, nullptr, plant), r, outcome);
    plant = false;
    const auto gap_start = Clock::now();
    for (int rep = 0; rep < kSetupRepsPerRound || seconds_since(gap_start) <
                                                      kSetupShareOfRound * round.seconds;
         ++rep) {
      (void)time_setup();
    }
    if (!first) first.emplace(std::move(round));
  }

  outcome.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_per_s", median(round_rate), "1/s"},
      {"latency_p50_ms", quantile(round_ms, 0.50), "ms"},
      {"latency_tail_ms", quantile(round_ms, 0.90), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  outcome.fact("threads", static_cast<double>(threads));
  outcome.fact("batch_scenarios", static_cast<double>(spec->batch));
  outcome.fact("rounds", static_cast<double>(round_ms.size()));
  outcome.fact("cells", static_cast<double>(outcome.attempted));
  outcome.fact("window_s", window_s);
  outcome.fact("tail_percentile", 90.0);
  outcome.fact("inputs_digest", hex64(digest));
  if (!args.trace) return outcome;

  auto start = Clock::now();
  (void)mts::citygen::generate_city(spec->city, kScale, kCitySeed);
  const double generate_s = seconds_since(start);
  start = Clock::now();
  const auto assets = mts::ChAssets::build(network.graph(), weights);
  const double ch_build_s = seconds_since(start);

  // Traced pass: round 0's batch again with the registry on.  Untraced and
  // traced repetitions alternate, each side first in every other pair (at
  // least two pairs, about a second of them on short rounds), so the
  // overhead compares like with like on a warm process.  The per-layer
  // numbers come from the first traced repetition, which is fixed work for a
  // seed.
  const auto run_first = [&](double& scenario_s) {
    const auto round_start = Clock::now();
    const auto scenarios = sample(*spec, network, weights, first->seed);
    scenario_s = seconds_since(round_start);
    (void)mts::exp::run_city_table_on(network, scenarios, round_config(*spec, *first));
    return seconds_since(round_start);
  };
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double scenario_s = 0.0;
  double grid_s = 0.0;
  std::optional<LayerView> traced;
  const auto untraced_rep = [&] {
    double unused = 0.0;
    untraced_s += run_first(unused);
  };
  const auto traced_rep = [&] {
    TracedPass pass;
    double rep_scenario_s = 0.0;
    const double rep_s = run_first(rep_scenario_s);
    traced_s += rep_s;
    if (!traced) {
      scenario_s = rep_scenario_s;
      grid_s = rep_s - rep_scenario_s;
      traced.emplace(pass.stop());
    }
  };
  const int pairs = 2 * std::clamp(static_cast<int>(std::ceil(0.5 / first->seconds)), 1, 3);
  for (int pair = 0; pair < pairs; ++pair) {
    if (pair % 2 == 0) {
      untraced_rep();
      traced_rep();
    } else {
      traced_rep();
      untraced_rep();
    }
  }
  const LayerView& view = *traced;

  // Call-level timings of round 0's cells on the grid's own (CH) path; the
  // aggregates must match the grid here too.
  const auto timed = replay_round(*first, network, weights, costs, &assets, false);
  check_round(*first, timed, 0, outcome);
  double attack_s[mts::exp::kNumAlgorithms] = {};
  double verify_s = 0.0;
  std::vector<double> cell_ms;
  for (std::size_t t = 0; t < timed.size(); ++t) {
    attack_s[t % mts::exp::kNumAlgorithms] += timed[t].attack_s;
    verify_s += timed[t].verify_s;
    cell_ms.push_back(1e3 * (timed[t].attack_s + timed[t].verify_s));
  }

  const double cell_time = view.inclusive_seconds("cell");
  const double scenario_time = view.inclusive_seconds("scenario");
  const double harness_time = scenario_time + cell_time + view.inclusive_seconds("ch_build");
  const double lp_self = view.self_seconds("lp");
  const double cch_self = view.self_seconds("cch");
  auto& layers = outcome.per_layer;
  layers = {
      {"citygen.generate_s", generate_s, "s"},
      {"exp.scenario_s", scenario_s, "s"},
      {"exp.grid_s", grid_s, "s"},
      {"exp.cell_p50_ms", quantile(cell_ms, 0.50), "ms"},
      {"exp.cell_p90_ms", quantile(cell_ms, 0.90), "ms"},
      {"pool.busy_share", share(cell_time, static_cast<double>(threads) * grid_s), "ratio"},
      {"ch.build_s", ch_build_s, "s"},
      {"attack.lp_path_cover_s", attack_s[0], "s"},
      {"attack.greedy_path_cover_s", attack_s[1], "s"},
      {"attack.greedy_edge_s", attack_s[2], "s"},
      {"attack.greedy_eig_s", attack_s[3], "s"},
      {"verify.time_s", verify_s, "s"},
      {"exp.cch_share", share(cch_self, cell_time), "ratio"},
      {"exp.cch_harness_share", share(cch_self, harness_time), "ratio"},
      {"exp.lp_share", share(lp_self, cell_time), "ratio"},
      {"exp.scenario_lp_share", share(scenario_time + lp_self, harness_time), "ratio"},
      {"trace.overhead_share", traced_s / untraced_s - 1.0, "ratio"},
  };
  append_registry_layers(view, layers);
  return outcome;
}

}  // namespace perfbench
