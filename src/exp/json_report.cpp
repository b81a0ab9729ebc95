#include "exp/json_report.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/error.hpp"
#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "exp/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mts::exp {

namespace {

void append_stats(std::ostringstream& out, const char* name, const RunningStats& stats) {
  out << '"' << name << "\":{\"mean\":" << json_number(stats.mean())
      << ",\"stddev\":" << json_number(stats.stddev()) << ",\"min\":" << json_number(stats.min())
      << ",\"max\":" << json_number(stats.max()) << ",\"n\":" << stats.count() << '}';
}

}  // namespace

std::string to_json(const CityTableResult& result) {
  std::ostringstream out;
  out << "{\"config\":{\"city\":\"" << citygen::to_string(result.config.city)
      << "\",\"weight\":\"" << attack::to_string(result.config.weight)
      << "\",\"scale\":" << json_number(result.config.scale)
      << ",\"trials\":" << result.config.trials
      << ",\"path_rank\":" << result.config.path_rank << ",\"seed\":" << result.config.seed
      << "},\"network\":{\"nodes\":" << result.metrics.num_nodes
      << ",\"edges\":" << result.metrics.num_edges
      << ",\"average_degree\":" << json_number(result.metrics.average_degree)
      << ",\"orientation_order\":" << json_number(result.metrics.orientation_order)
      << ",\"four_way_share\":" << json_number(result.metrics.four_way_share)
      << "},\"scenarios_run\":" << result.scenarios_run << ",\"cells\":[";

  bool first = true;
  for (attack::Algorithm algorithm : attack::kAllAlgorithms) {
    for (attack::CostType cost : attack::kAllCostTypes) {
      if (!first) out << ',';
      first = false;
      const auto& cell = result.cell(algorithm, cost);
      out << "{\"algorithm\":\"" << to_string(algorithm) << "\",\"cost_model\":\""
          << to_string(cost) << "\",";
      append_stats(out, "runtime_s", cell.runtime);
      out << ',';
      append_stats(out, "edges_removed", cell.edges_removed);
      out << ',';
      append_stats(out, "cost", cell.cost);
      out << ",\"attack_failures\":" << cell.attack_failures
          << ",\"verification_failures\":" << cell.verification_failures;
      // Degradation fields appear only when something degraded, so clean
      // runs stay byte-identical to reports written before these existed.
      if (cell.fallbacks > 0) out << ",\"fallbacks\":" << cell.fallbacks;
      if (cell.quarantined > 0) {
        out << ",\"quarantined\":" << cell.quarantined << ",\"errors\":[";
        for (std::size_t i = 0; i < cell.errors.size(); ++i) {
          if (i > 0) out << ',';
          out << '"' << json_escape(cell.errors[i]) << '"';
        }
        out << ']';
      }
      out << '}';
    }
  }
  out << "]}";
  return out.str();
}

void save_json(const CityTableResult& result, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  require(out.good(), "save_json: cannot open " + path);
  out << to_json(result);
}

void save_observability(const std::string& base_path) {
  if (!obs::metrics_enabled()) return;
  const auto resolution = thread_resolution();
  obs::RunInfo run;
  run.threads_requested = resolution.requested;
  run.threads_effective = resolution.effective;
  run.timing = timing_enabled();
  obs::save_metrics_json(obs::MetricsRegistry::instance().snapshot(), run,
                         base_path + "_metrics.json");
  if (obs::trace_enabled()) {
    obs::save_chrome_trace(obs::MetricsRegistry::instance().trace_events(),
                           base_path + "_trace.json");
  }
}

}  // namespace mts::exp
