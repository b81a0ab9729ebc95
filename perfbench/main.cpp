// Benchmark program: runs one workload and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Output: `# key=value` run facts, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
// are the end-to-end set, measured with the metrics registry off; with
// --trace 1 they are the per-layer set from an additional traced pass.
// Exit 0 when every answer checked out, 1 when a check failed (the result is
// still printed), 2 on a usage or runtime error, 3 when the run is invalid
// (the open-loop sender fell behind), in which case nothing is printed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/thread_pool.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The workloads share one end-to-end vocabulary: a table's unit of work is
// an attacked-and-verified cell, a daemon's is an answered request.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, in report order.  A layer a workload never enters
// reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"citygen.generate_s", "s"},
    {"exp.scenario_s", "s"},
    {"exp.grid_s", "s"},
    {"exp.cell_p50_ms", "ms"},
    {"exp.cell_p90_ms", "ms"},
    {"exp.cch_share", "ratio"},
    {"exp.cch_harness_share", "ratio"},
    {"exp.lp_share", "ratio"},
    {"exp.scenario_lp_share", "ratio"},
    {"pool.busy_share", "ratio"},
    {"ch.build_s", "s"},
    {"ch.nodes_settled", "count"},
    {"ch.phast_runs", "count"},
    {"ch.sweep_relaxations", "count"},
    {"ch.recustomizations", "count"},
    {"cch.arcs_recomputed", "count"},
    {"cch.queries", "count"},
    {"cch.arcs_per_recustomization", "ratio"},
    {"cch.self_s", "s"},
    {"dijkstra.runs", "count"},
    {"dijkstra.nodes_settled", "count"},
    {"dijkstra.edges_scanned", "count"},
    {"dijkstra.self_s", "s"},
    {"yen.queries", "count"},
    {"yen.spur_searches", "count"},
    {"yen.spurs_pruned", "count"},
    {"yen.pruned_share", "ratio"},
    {"yen.self_s", "s"},
    {"lp.solves", "count"},
    {"lp.pivots", "count"},
    {"lp.degenerate_pivots", "count"},
    {"lp.tableau_builds", "count"},
    {"lp.useful_pivot_share", "ratio"},
    {"lp.self_s", "s"},
    {"attack.lp_path_cover_s", "s"},
    {"attack.greedy_path_cover_s", "s"},
    {"attack.greedy_edge_s", "s"},
    {"attack.greedy_eig_s", "s"},
    {"attack.rounds", "count"},
    {"attack.oracle_calls", "count"},
    {"attack.constraints_generated", "count"},
    {"oracle.tie_certifications", "count"},
    {"oracle.self_s", "s"},
    {"verify.time_s", "s"},
    {"verify.rejections", "count"},
    {"net.engine_route_us", "us"},
    {"net.engine_kalt_ms", "ms"},
    {"net.engine_attack_ms", "ms"},
    {"net.parse_us", "us"},
    {"net.serialize_us", "us"},
    {"net.server_overhead_us", "us"},
    {"net.server_p50_ms", "ms"},
    {"net.server_p99_ms", "ms"},
    {"net.queue_depth_p99", "requests"},
    {"net.shed", "count"},
    {"net.deadline_exceeded", "count"},
    {"net.route_engine_share", "ratio"},
    {"net.attack_engine_share", "ratio"},
    {"client.route_p50_ms", "ms"},
    {"client.route_p99_ms", "ms"},
    {"client.kalt_p50_ms", "ms"},
    {"client.kalt_p98_ms", "ms"},
    {"client.attack_p50_ms", "ms"},
    {"client.attack_p90_ms", "ms"},
    {"gen.late_p99_ms", "ms"},
    {"trace.overhead_share", "ratio"},
};

const char* const kWorkloads[] = {"table_boston_length", "table_chicago_time", "serve_route",
                                  "serve_mixed"};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
            << "workloads: table_boston_length table_chicago_time serve_route serve_mixed\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-answer") {
      args.plant_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || args.workload == name;
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (!have_seed) usage("--seed is required");
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Emits `specs` in order from the workload's metrics: each name must be one
/// the workload reported (or, for per-layer metrics, reads 0 when the layer
/// is idle here), with the declared unit.
std::string metrics_json(const std::vector<Metric>& reported, const MetricSpec* specs,
                         std::size_t count, bool idle_is_zero) {
  std::set<std::string> declared;
  for (std::size_t k = 0; k < count; ++k) declared.insert(specs[k].name);
  for (const Metric& metric : reported) {
    if (declared.count(metric.name) == 0) {
      throw std::logic_error("workload reported undeclared metric " + metric.name);
    }
  }
  std::string out = "{";
  for (std::size_t k = 0; k < count; ++k) {
    const Metric* found = nullptr;
    for (const Metric& metric : reported) {
      if (metric.name == specs[k].name) found = &metric;
    }
    if (found == nullptr && !idle_is_zero) {
      throw std::logic_error(std::string("workload did not report ") + specs[k].name);
    }
    if (found != nullptr && found->unit != specs[k].unit) {
      throw std::logic_error("unit mismatch for " + found->name);
    }
    double value = found != nullptr ? found->value : 0.0;
    if (!std::isfinite(value)) throw std::logic_error(std::string("non-finite ") + specs[k].name);
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (k > 0) out += ", ";
    out += json_string(specs[k].name) + ": {\"value\": " + number +
           ", \"unit\": " + json_string(specs[k].unit) + "}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  mts::set_num_threads(nproc);

  const bool table = args.workload.rfind("table_", 0) == 0;
  Outcome outcome = table ? run_table_workload(args) : run_serve_workload(args);

  std::cout << "# workload=" << args.workload << "\n"
            << "# seed=" << args.seed << "\n"
            << "# seconds=" << args.seconds << "\n"
            << "# trace=" << (args.trace ? 1 : 0) << "\n"
            << "# nproc=" << nproc << "\n"
            << "# cpu_model=" << cpu_model() << "\n"
            << "# build_type=" << PERFBENCH_BUILD_TYPE << "\n";
  for (const auto& [key, value] : outcome.facts) std::cout << "# " << key << "=" << value << "\n";
  for (const Metric& metric : outcome.end_to_end) {
    std::cout << "# e2e " << metric.name << "=" << metric.value << " " << metric.unit << "\n";
  }
  for (const std::string& failure : outcome.failures) std::cout << "# FAILED " << failure << "\n";
  if (!outcome.valid) {
    std::cout << "# INVALID: the open-loop sender fell behind its schedule; rerun on a quieter host"
              << std::endl;
    std::cerr << "perfbench: invalid run (sender behind schedule)\n";
    return 3;
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  const std::string metrics =
      args.trace ? metrics_json(outcome.per_layer, kPerLayer, std::size(kPerLayer), true)
                 : metrics_json(outcome.end_to_end, kEndToEnd, std::size(kEndToEnd), false);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
