#include "cli/cli.hpp"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string_view>

#include "attack/algorithms.hpp"
#include "attack/area_isolation.hpp"
#include "attack/interdiction.hpp"
#include "attack/models.hpp"
#include "attack/verify.hpp"
#include "citygen/generate.hpp"
#include "core/budget.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "core/table.hpp"
#include "exp/json_report.hpp"
#include "exp/scenario.hpp"
#include "graph/metrics.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/snapshot.hpp"
#include "obs/metrics.hpp"
#include "osm/xml.hpp"
#include "viz/geojson.hpp"
#include "viz/svg.hpp"

namespace mts::cli {

namespace {

/// Flag map: "--key value" pairs after the subcommand.  Every subcommand
/// declares the flags it accepts; an unknown or mistyped flag is rejected
/// with the exact offending token instead of silently parsing as its
/// default (`mts attack --algoritm greedy-edge` used to run the default
/// algorithm without a word of complaint).
class Flags {
 public:
  Flags(const std::vector<std::string>& args, std::size_t start, const char* command,
        std::initializer_list<std::string_view> allowed) {
    for (std::size_t i = start; i < args.size(); i += 2) {
      if (args[i].rfind("--", 0) != 0 || i + 1 >= args.size()) {
        throw InvalidInput("expected --flag value pairs, got '" + args[i] + "'");
      }
      const std::string key = args[i].substr(2);
      bool known = false;
      for (const std::string_view candidate : allowed) known = known || candidate == key;
      if (!known) {
        std::string message =
            "unknown flag '" + args[i] + "' for '" + command + "' (allowed:";
        for (const std::string_view candidate : allowed) {
          message += " --";
          message += candidate;
        }
        message += ')';
        throw InvalidInput(message);
      }
      if (!values_.emplace(key, args[i + 1]).second) {
        throw InvalidInput("duplicate flag '" + args[i] + "'");
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string require_flag(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw InvalidInput("missing required flag --" + key);
    return it->second;
  }
  /// Numeric getters reject anything but a fully-consumed literal, so
  /// "--seed 7x" or "--budget ten" fail with the flag name instead of a
  /// bare std::stod exception.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(it->second, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != it->second.size()) {
      throw InvalidInput("--" + key + " expects a number, got '" + it->second + "'");
    }
    return parsed;
  }
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    long parsed = 0;
    try {
      parsed = std::stol(it->second, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != it->second.size()) {
      throw InvalidInput("--" + key + " expects an integer, got '" + it->second + "'");
    }
    return parsed;
  }

 private:
  std::map<std::string, std::string> values_;
};

citygen::City parse_city(const std::string& name) {
  if (name == "boston") return citygen::City::Boston;
  if (name == "sf" || name == "san-francisco") return citygen::City::SanFrancisco;
  if (name == "chicago") return citygen::City::Chicago;
  if (name == "la" || name == "los-angeles") return citygen::City::LosAngeles;
  throw InvalidInput("unknown city '" + name + "' (boston|sf|chicago|la)");
}

attack::CostType parse_cost(const std::string& name) {
  if (name == "uniform") return attack::CostType::Uniform;
  if (name == "lanes") return attack::CostType::Lanes;
  if (name == "width") return attack::CostType::Width;
  throw InvalidInput("unknown cost '" + name + "' (uniform|lanes|width)");
}

/// Shared semantic checks; each throws InvalidInput naming the flag.
std::uint64_t parse_seed(const Flags& flags) {
  const long seed = flags.get_int("seed", 7);
  if (seed < 0) throw InvalidInput("--seed must be >= 0");
  return static_cast<std::uint64_t>(seed);
}

double parse_budget(const Flags& flags, double fallback) {
  const double budget = flags.get_double("budget", fallback);
  if (!(budget > 0.0)) throw InvalidInput("--budget must be positive");
  return budget;
}

osm::RoadNetwork load_network(const Flags& flags) {
  const std::string path = flags.require_flag("osm");
  return osm::RoadNetwork::build(osm::load_osm_xml(path));
}

/// Hospital POI index by name, or the first hospital when unspecified.
std::size_t hospital_index(const osm::RoadNetwork& network, const Flags& flags) {
  require(!network.pois().empty(), "network has no POIs");
  const std::string wanted = flags.get("hospital", "");
  if (wanted.empty()) return 0;
  for (std::size_t i = 0; i < network.pois().size(); ++i) {
    if (network.pois()[i].name == wanted) return i;
  }
  throw InvalidInput("hospital '" + wanted + "' not found in the network");
}

int cmd_generate(const Flags& flags, std::ostream& out) {
  const auto city = parse_city(flags.get("city", "boston"));
  const double scale = flags.get_double("scale", 1.0);
  if (!(scale > 0.0)) throw InvalidInput("--scale must be positive");
  const auto spec = citygen::city_spec(city, scale);
  const auto data = citygen::generate_city_osm(spec, parse_seed(flags));
  const std::string path = flags.require_flag("out");
  osm::save_osm_xml(data, path);
  out << "wrote " << data.nodes.size() << " nodes, " << data.ways.size() << " ways to "
      << path << "\n";
  return 0;
}

int cmd_info(const Flags& flags, std::ostream& out) {
  const auto network = load_network(flags);
  const auto metrics = compute_network_metrics(network.graph());
  Table table("Network info", {"Metric", "Value"});
  table.add_row({"Intersections (graph nodes)", std::to_string(metrics.num_nodes)});
  table.add_row({"Directed road segments", std::to_string(metrics.num_edges)});
  table.add_row({"Average node degree", format_fixed(metrics.average_degree, 2)});
  table.add_row({"Orientation order (1 = grid)", format_fixed(metrics.orientation_order, 3)});
  table.add_row({"4-way intersection share", format_fixed(metrics.four_way_share, 3)});
  table.add_row({"Mean segment length (m)", format_fixed(metrics.mean_segment_length, 1)});
  table.render_text(out);
  out << "POIs:\n";
  for (const auto& poi : network.pois()) {
    out << "  - " << poi.name << " (" << poi.amenity << ")\n";
  }
  return 0;
}

int cmd_attack(const Flags& flags, std::ostream& out, std::ostream& err) {
  // Enable tracing before any instrumented work runs so the dump below
  // covers scenario sampling and the attack itself.
  const std::string trace_base = flags.get("trace", "");
  if (!trace_base.empty()) obs::set_trace_enabled(true);
  const auto network = load_network(flags);
  const auto weights =
      attack::make_weights(network, attack::parse_weight(flags.get("weight", "time")));
  const auto costs = attack::make_costs(network, parse_cost(flags.get("cost", "uniform")));
  const auto algorithm = attack::parse_algorithm(flags.get("algorithm", "greedy-pathcover"));

  Rng rng(parse_seed(flags));
  exp::ScenarioOptions options;
  options.path_rank = static_cast<int>(flags.get_int("rank", 100));
  if (options.path_rank < 1) throw InvalidInput("--rank must be >= 1");
  const auto scenario =
      exp::sample_scenario(network, weights, hospital_index(network, flags), rng, options);
  if (!scenario) {
    err << "error: could not sample a scenario (try a smaller --rank)\n";
    return 1;
  }

  attack::ForcePathCutProblem problem =
      exp::make_problem(network.graph(), weights, costs, *scenario);
  problem.budget = parse_budget(flags, problem.budget);

  const auto result = run_attack(algorithm, problem);
  out << "status: " << to_string(result.status) << "\n"
      << "victim: random intersection -> " << scenario->hospital << "\n"
      << "forced path rank " << options.path_rank << ": "
      << format_fixed(scenario->p_star_length, 1) << " (fastest "
      << format_fixed(scenario->shortest_length, 1) << ")\n"
      << "removed " << result.num_removed() << " segments, cost "
      << format_fixed(result.total_cost, 2) << ", computed in "
      << format_fixed(result.seconds * 1000, 1) << " ms\n";
  for (EdgeId e : result.removed_edges) {
    const auto& name = network.segment_name(e);
    out << "  - block " << (name.empty() ? "(unnamed road)" : name) << "\n";
  }
  if (!trace_base.empty()) {
    exp::save_observability(trace_base);
    out << "wrote " << trace_base << "_metrics.json and " << trace_base << "_trace.json\n";
  }
  if (result.status != attack::AttackStatus::Success) return 1;

  const auto verdict = attack::verify_attack(problem, result.removed_edges);
  out << "verified exclusive shortest: " << (verdict.ok ? "yes" : verdict.reason) << "\n";

  const std::string svg = flags.get("svg", "");
  if (!svg.empty()) {
    viz::save_attack_svg(svg, network, problem.p_star, result.removed_edges, problem.source,
                         problem.target);
    out << "wrote " << svg << "\n";
  }
  const std::string geojson = flags.get("geojson", "");
  if (!geojson.empty()) {
    viz::save_attack_geojson(geojson, network, problem.p_star, result.removed_edges,
                             problem.source, problem.target);
    out << "wrote " << geojson << "\n";
  }
  return verdict.ok ? 0 : 1;
}

int cmd_isolate(const Flags& flags, std::ostream& out) {
  const auto network = load_network(flags);
  const auto costs = attack::make_costs(network, parse_cost(flags.get("cost", "lanes")));
  const auto& poi = network.pois()[hospital_index(network, flags)];
  const double radius = flags.get_double("radius", 400.0);
  if (!(radius > 0.0)) throw InvalidInput("--radius must be positive");
  const auto area = attack::nodes_within_radius(network.graph(), poi.access_node, radius);
  const auto result = attack::isolate_area(network.graph(), costs, area);
  if (!result.feasible) {
    out << "isolation infeasible (area empty or covers the whole city)\n";
    return 1;
  }
  out << "isolating " << result.area_nodes << " intersections around " << poi.name
      << ": block " << result.cut_edges.size() << " segments, cost "
      << format_fixed(result.total_cost, 2) << "\n";
  for (EdgeId e : result.cut_edges) {
    const auto& name = network.segment_name(e);
    out << "  - block " << (name.empty() ? "(unnamed road)" : name) << "\n";
  }
  return 0;
}

int cmd_interdict(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto network = load_network(flags);
  const auto weights =
      attack::make_weights(network, attack::parse_weight(flags.get("weight", "time")));
  const auto costs = attack::make_costs(network, parse_cost(flags.get("cost", "uniform")));
  const auto& poi = network.pois()[hospital_index(network, flags)];

  Rng rng(parse_seed(flags));
  const auto intersections = network.intersection_nodes();
  const NodeId source = intersections[rng.uniform_index(intersections.size())];
  if (source == poi.node) {
    err << "error: sampled source equals the target\n";
    return 1;
  }
  const auto result = attack::interdict_route(network.graph(), weights, costs, source, poi.node,
                                              parse_budget(flags, 8.0));
  out << "interdiction " << source.value() << " -> " << poi.name << ": baseline "
      << format_fixed(result.baseline_distance, 1) << ", after "
      << result.removed_edges.size() << " closures "
      << format_fixed(result.final_distance, 1) << " (delay factor "
      << format_fixed(result.delay_factor(), 2) << ")\n";
  return 0;
}

// ---- routed / loadgen ------------------------------------------------------

/// Signal-to-serve-loop bridge (function-local static per lint rule
/// no-mutable-global).  The handler only stores into a lock-free atomic;
/// the accept loop polls it every 200 ms.
std::atomic<bool>& routed_stop_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

void handle_stop_signal(int) { routed_stop_flag().store(true); }

/// Client-side port resolution: --port-file (written by `mts routed`),
/// else --port, else MTS_PORT.  `require_positive` demands a concrete port
/// (the client side; the server accepts 0 = ephemeral and treats
/// --port-file as its *output*).
std::uint16_t resolve_port(const Flags& flags, bool require_positive) {
  long port = flags.get_int("port", env_int("MTS_PORT", 0));
  if (require_positive) {
    const std::string port_file = flags.get("port-file", "");
    if (!port_file.empty()) {
      std::ifstream file(port_file);
      if (!(file >> port)) {
        throw InvalidInput("--port-file " + port_file + " is unreadable or not a port number");
      }
    }
  }
  if (port < 0 || port > 65535 || (require_positive && port == 0)) {
    throw InvalidInput("--port must be in [" + std::string(require_positive ? "1" : "0") +
                       ", 65535], got " + std::to_string(port));
  }
  return static_cast<std::uint16_t>(port);
}

int cmd_routed(const Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string obs_base = flags.get("obs", "");
  if (!obs_base.empty()) obs::set_metrics_enabled(true);

  net::RoutedOptions options;
  options.host = flags.get("host", "127.0.0.1");
  options.port = resolve_port(flags, /*require_positive=*/false);
  const long threads = flags.get_int("threads", 0);
  if (threads < 0) throw InvalidInput("--threads must be >= 0");
  options.threads = static_cast<std::size_t>(threads);
  const std::string budget_spec = flags.get("budget", "");
  options.request_budget =
      budget_spec.empty() ? WorkBudget::from_environment() : WorkBudget::parse(budget_spec);

  // MTS_SLOWLOG is a millisecond threshold; unset or 0 keeps the log off
  // (and then --slowlog only picks the file name nothing is written to).
  const double slowlog_ms = env_double("MTS_SLOWLOG", 0.0);
  if (slowlog_ms < 0.0) throw InvalidInput("MTS_SLOWLOG must be >= 0 (milliseconds)");
  options.slowlog_threshold_s = slowlog_ms / 1000.0;
  options.slowlog_path = flags.get("slowlog", options.slowlog_path);

  // Overload knobs (DESIGN.md §15); each defaults to 0 = off, so an
  // unconfigured daemon behaves byte-for-byte like the pre-overload one.
  // env_int/env_double reject a malformed value, so a typo aborts instead
  // of serving with the protection off; a negative value is rejected here.
  const auto count = [](const char* name) {
    const std::int64_t value = env_int(name, 0);
    if (value < 0) throw InvalidInput(std::string(name) + " must be >= 0");
    return static_cast<std::size_t>(value);
  };
  const auto seconds_from_ms = [](const char* name) {
    const double ms = env_double(name, 0.0);
    if (ms < 0.0) throw InvalidInput(std::string(name) + " must be >= 0 (milliseconds)");
    return ms / 1000.0;
  };
  options.max_inflight = count("MTS_MAX_INFLIGHT");
  options.max_queue = count("MTS_MAX_QUEUE");
  options.deadline_s = seconds_from_ms("MTS_DEADLINE_MS");
  options.write_timeout_s = seconds_from_ms("MTS_WRITE_TIMEOUT_MS");

  const net::Snapshot snapshot = net::Snapshot::load(flags.require_flag("osm"));
  net::RoutedServer server(snapshot, options);
  server.start();

  // The handlers go in before the port file appears: a supervisor that
  // signals as soon as it reads the port must get a drain, not a kill.
  routed_stop_flag().store(false);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const std::string port_file = flags.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream file(port_file);
    require(file.good(), "cannot write --port-file " + port_file);
    file << server.port() << "\n";
  }
  err << "[routed] serving " << snapshot.num_nodes() << " nodes / " << snapshot.num_edges()
      << " edges on " << options.host << ":" << server.port() << "\n";

  server.serve(&routed_stop_flag());

  const net::RoutedStats stats = server.stats();
  out << "routed: connections=" << stats.connections << " requests=" << stats.requests
      << " ok=" << stats.responses_ok << " errors=" << stats.responses_error
      << " protocol_errors=" << stats.protocol_errors << " shed=" << stats.shed
      << " deadline_exceeded=" << stats.deadline_exceeded
      << " slow_client_disconnects=" << stats.slow_client_disconnects << "\n";
  if (!obs_base.empty()) exp::save_observability(obs_base);
  return 0;
}

int cmd_stats(const Flags& flags, std::ostream& out) {
  const std::string host = flags.get("host", "127.0.0.1");
  const std::uint16_t port = resolve_port(flags, /*require_positive=*/true);
  net::Request request;
  request.verb = net::Verb::Stats;
  request.id = 1;
  const net::Response response = net::request_once(host, port, request);
  if (!response.ok) throw Error("stats request failed: " + response.error);
  for (const auto& [key, value] : response.fields) out << key << "=" << value << "\n";
  return 0;
}

int cmd_loadgen(const Flags& flags, std::ostream& out) {
  const std::string obs_base = flags.get("obs", "");
  if (!obs_base.empty()) obs::set_metrics_enabled(true);

  net::LoadgenOptions options;
  const long requests = flags.get_int("requests", 1000);
  if (requests < 1) throw InvalidInput("--requests must be >= 1");
  options.requests = static_cast<std::uint64_t>(requests);
  const long connections = flags.get_int("connections", 4);
  if (connections < 1) throw InvalidInput("--connections must be >= 1");
  options.connections = static_cast<std::size_t>(connections);
  const long window = flags.get_int("window", 16);
  if (window < 1) throw InvalidInput("--window must be >= 1");
  options.window = static_cast<std::size_t>(window);
  options.seed = parse_seed(flags);
  options.mix = net::parse_mix(flags.get("mix", "route"));
  options.weight = attack::parse_weight(flags.get("weight", "time"));
  const long k = flags.get_int("k", 4);
  if (k < 1 || k > static_cast<long>(net::kMaxAlternatives)) {
    throw InvalidInput("--k must be in [1, " + std::to_string(net::kMaxAlternatives) + "]");
  }
  options.kalt_k = static_cast<std::uint32_t>(k);
  const long rank = flags.get_int("rank", 8);
  if (rank < 1 || rank > static_cast<long>(net::kMaxPathRank)) {
    throw InvalidInput("--rank must be in [1, " + std::to_string(net::kMaxPathRank) + "]");
  }
  options.attack_rank = static_cast<std::uint32_t>(rank);
  options.dump_path = flags.get("dump", "");
  const long retries = flags.get_int("retries", 0);
  if (retries < 0) throw InvalidInput("--retries must be >= 0");
  options.retry_limit = static_cast<std::uint32_t>(retries);
  const long reconnects = flags.get_int("reconnects", 0);
  if (reconnects < 0) throw InvalidInput("--reconnects must be >= 0");
  options.max_reconnects = static_cast<std::size_t>(reconnects);
  const long require_zero_drops = flags.get_int("require-zero-drops", 0);
  if (require_zero_drops != 0 && require_zero_drops != 1) {
    throw InvalidInput("--require-zero-drops must be 0 or 1");
  }

  const std::string host = flags.get("host", "127.0.0.1");
  const std::uint16_t port = resolve_port(flags, /*require_positive=*/true);
  const net::LoadReport report = net::run_loadgen(host, port, options);

  out << "loadgen: sent=" << report.sent << " completed=" << report.completed
      << " ok=" << report.ok << " errors=" << report.errors << " dropped=" << report.dropped
      << " retried=" << report.retried << " reconnects=" << report.reconnects << "\n";
  if (report.partial) {
    out << "partial: latency percentiles cover completed requests only ("
        << report.dropped << " dropped, " << report.failed_connections
        << " dead connection(s))\n";
  }
  out << "latency_ms: p50=" << format_fixed(report.p50_s * 1e3, 3)
      << " p99=" << format_fixed(report.p99_s * 1e3, 3)
      << " mean=" << format_fixed(report.mean_s * 1e3, 3)
      << " max=" << format_fixed(report.max_s * 1e3, 3)
      << " wall_s=" << format_fixed(report.wall_s, 3) << " qps=" << format_fixed(report.qps, 1)
      << "\n";
  if (report.failed_connections > 0) {
    out << "failures: " << report.failed_connections
        << " connection(s) died (first: " << report.first_failure << ")\n";
  }
  // The server-side view of the same run: windowed p50/p99 printed next to
  // the client percentiles above.  Best-effort — the daemon may already be
  // draining, and a missing snapshot should not fail the load result.
  try {
    net::Request stats_request;
    stats_request.verb = net::Verb::Stats;
    stats_request.id = options.requests + 1;
    const net::Response stats = net::request_once(host, port, stats_request);
    if (stats.ok) {
      out << "server stats:\n";
      for (const auto& [key, value] : stats.fields) out << "  " << key << "=" << value << "\n";
    }
  } catch (const std::exception& ex) {
    out << "server stats unavailable: " << ex.what() << "\n";
  }
  if (!obs_base.empty()) exp::save_observability(obs_base);
  // A partial replay is a reportable outcome, not automatically a failure:
  // the report says so and percentiles are flagged.  CI smoke legs opt into
  // strictness with --require-zero-drops 1.
  if (require_zero_drops != 0 && report.partial) return 1;
  return 0;
}

}  // namespace

std::string usage() {
  return "usage: mts <command> [--flag value ...]\n"
         "commands:\n"
         "  generate   --city boston|sf|chicago|la --scale S --seed N --out FILE.osm\n"
         "  info       --osm FILE.osm\n"
         "  attack     --osm FILE.osm [--hospital NAME] [--algorithm ALG] [--weight W]\n"
         "             [--cost C] [--rank K] [--seed N] [--budget B] [--svg F] [--geojson F]\n"
         "             [--trace BASE]  (writes BASE_metrics.json + BASE_trace.json)\n"
         "  isolate    --osm FILE.osm [--hospital NAME] [--radius M] [--cost C]\n"
         "  interdict  --osm FILE.osm [--hospital NAME] [--budget B] [--weight W] [--cost C]\n"
         "  routed     --osm FILE.osm [--host H] [--port P] [--port-file F] [--threads N]\n"
         "             [--budget edges=N,pivots=N,spurs=N] [--obs BASE] [--slowlog FILE]\n"
         "             serves route/kalt/table/attack/stats queries; SIGINT/SIGTERM\n"
         "             drains and exits.  MTS_SLOWLOG=<ms> arms the slow-query log.\n"
         "             Overload knobs: MTS_MAX_INFLIGHT / MTS_MAX_QUEUE (admission\n"
         "             control), MTS_DEADLINE_MS (per-request deadline),\n"
         "             MTS_WRITE_TIMEOUT_MS (slow-client eviction); all default off\n"
         "  stats      --port P | --port-file F [--host H]\n"
         "             prints a live daemon's stats snapshot, one key=value per line\n"
         "  loadgen    --port P | --port-file F [--host H] [--requests N] [--connections C]\n"
         "             [--window W] [--seed N] [--mix route|kalt|attack|table|mixed] [--k K]\n"
         "             [--rank R] [--weight W] [--obs BASE] [--dump FILE] [--retries N]\n"
         "             [--reconnects N] [--require-zero-drops 0|1]\n"
         "             --dump writes raw response lines sorted by id (A/B parity diffs);\n"
         "             --retries re-sends overloaded/deadline-exceeded answers,\n"
         "             --reconnects redials dead connections with deterministic backoff,\n"
         "             --require-zero-drops 1 exits 1 on any drop or dead connection\n"
         "  help\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      out << usage();
      return args.empty() ? 1 : 0;
    }
    if (args[0] == "generate") {
      return cmd_generate(Flags(args, 1, "generate", {"city", "scale", "seed", "out"}), out);
    }
    if (args[0] == "info") {
      return cmd_info(Flags(args, 1, "info", {"osm"}), out);
    }
    if (args[0] == "attack") {
      return cmd_attack(Flags(args, 1, "attack",
                              {"osm", "hospital", "algorithm", "weight", "cost", "rank", "seed",
                               "budget", "svg", "geojson", "trace"}),
                        out, err);
    }
    if (args[0] == "isolate") {
      return cmd_isolate(Flags(args, 1, "isolate", {"osm", "hospital", "radius", "cost"}), out);
    }
    if (args[0] == "interdict") {
      return cmd_interdict(
          Flags(args, 1, "interdict", {"osm", "hospital", "budget", "weight", "cost", "seed"}),
          out, err);
    }
    if (args[0] == "routed") {
      return cmd_routed(Flags(args, 1, "routed",
                              {"osm", "host", "port", "port-file", "threads", "budget", "obs",
                               "slowlog"}),
                        out, err);
    }
    if (args[0] == "stats") {
      return cmd_stats(Flags(args, 1, "stats", {"host", "port", "port-file"}), out);
    }
    if (args[0] == "loadgen") {
      return cmd_loadgen(Flags(args, 1, "loadgen",
                               {"host", "port", "port-file", "requests", "connections", "window",
                                "seed", "mix", "k", "rank", "weight", "obs", "dump", "retries",
                                "reconnects", "require-zero-drops"}),
                         out);
    }
    err << "error: unknown command '" << args[0] << "'\n" << usage();
    return 1;
  } catch (const std::exception& ex) {
    err << "error: " << ex.what() << "\n";
    return 1;
  }
}

}  // namespace mts::cli
