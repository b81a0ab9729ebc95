#include "net/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string_view>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace mts::net {

namespace {

/// Sources and targets per table request (at most kMaxTableDim).
constexpr std::uint32_t kTableDim = 4;
static_assert(kTableDim <= kMaxTableDim);

obs::CounterId sent_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("loadgen.requests_sent");
  return id;
}

obs::CounterId ok_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("loadgen.responses_ok");
  return id;
}

obs::CounterId error_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("loadgen.responses_error");
  return id;
}

obs::HistogramId latency_histogram() {
  static const obs::HistogramId id =
      obs::MetricsRegistry::instance().histogram("loadgen.request_latency_s");
  return id;
}

/// Per-connection replay state and results.
struct ConnectionRun {
  std::vector<const Request*> assigned;
  std::size_t connection_index = 0;  // jitter-stream key for reconnect backoff
  std::uint64_t sent = 0;            // unique requests put on the wire
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t retried = 0;     // re-sends after retryable err responses
  std::uint64_t reconnects = 0;  // successful reconnections
  std::vector<double> latencies_s;  // raw seconds, gated at report time
  std::string failure;              // taxonomy when the connection died
  bool keep_responses = false;      // --dump: record raw response lines
  std::vector<std::pair<std::uint64_t, std::string>> responses;
};

bool retryable_error(const Response& response) {
  const std::string_view error = response.error;
  return !response.ok && (error.substr(0, 10) == "overloaded" ||
                          error.substr(0, 17) == "deadline-exceeded");
}

/// Number of nodes served by the daemon, via a `graph` request on a
/// dedicated control connection.
std::size_t query_num_nodes(const std::string& host, std::uint16_t port) {
  Request probe;
  probe.verb = Verb::Graph;
  probe.id = 0;
  const Response response = request_once(host, port, probe);
  if (!response.ok) throw Error("loadgen: graph probe failed: " + response.error);
  return static_cast<std::size_t>(parse_wire_u64(response.field("nodes"), "graph nodes",
                                                  std::numeric_limits<std::uint32_t>::max()));
}

void replay_connection(const std::string& host, std::uint16_t port,
                       const LoadgenOptions& options, ConnectionRun& run) {
  // Per-request replay state: a request is either done, in flight on the
  // current socket, or waiting in `ready` for a (re-)send.
  struct Slot {
    const Request* request = nullptr;
    std::uint32_t retries_left = 0;
    bool sent_once = false;
  };
  std::vector<Slot> slots(run.assigned.size());
  std::map<std::uint64_t, std::size_t> id_to_slot;
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < run.assigned.size(); ++i) {
    slots[i].request = run.assigned[i];
    slots[i].retries_left = options.retry_limit;
    id_to_slot.emplace(run.assigned[i]->id, i);
    ready.push_back(i);
  }

  try {
    Socket socket = connect_to(host, port);
    const Stopwatch watch;
    LineFramer framer;
    std::vector<char> buffer(8192);
    std::string line;
    std::map<std::uint64_t, double> in_flight_start_s;
    std::size_t reconnects_used = 0;
    std::uint64_t completed = 0;

    // Connection death (EOF or a failed write): give up, or — with a
    // reconnect budget — back off deterministically, dial back in, and
    // queue every unanswered in-flight request for re-send ahead of the
    // unsent tail (ascending id, so replays stay reproducible).
    const auto try_reconnect = [&]() -> bool {
      if (reconnects_used >= options.max_reconnects) return false;
      ++reconnects_used;
      const double backoff_s =
          reconnect_backoff_s(options.seed, run.connection_index, reconnects_used);
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      socket = connect_to(host, port);  // throws when the daemon is gone for good
      framer = LineFramer();            // drop any partial line from the dead socket
      for (auto it = in_flight_start_s.rbegin(); it != in_flight_start_s.rend(); ++it) {
        ready.push_front(id_to_slot.at(it->first));
      }
      in_flight_start_s.clear();
      ++run.reconnects;
      return true;
    };

    while (completed < slots.size()) {
      // Top up the window, batching the burst into one write.
      std::string burst;
      std::uint64_t burst_lines = 0;
      while (!ready.empty() && in_flight_start_s.size() < options.window) {
        Slot& slot = slots[ready.front()];
        ready.pop_front();
        burst += serialize_request(*slot.request);
        burst += '\n';
        ++burst_lines;
        in_flight_start_s.emplace(slot.request->id, watch.seconds());
        if (!slot.sent_once) {
          slot.sent_once = true;
          ++run.sent;
        }
      }
      if (!burst.empty()) {
        try {
          socket.write_all(burst);
        } catch (const std::exception&) {
          if (!try_reconnect()) {
            run.failure = "error: daemon closed the connection mid-load";
            return;  // the remaining in-flight requests count as dropped
          }
          continue;
        }
        obs::add(sent_counter(), burst_lines);
      }

      std::size_t received = 0;
      try {
        received = socket.read_some(buffer.data(), buffer.size());
      } catch (const std::exception&) {
        received = 0;  // a reset (evicted slow client) dies like a clean EOF
      }
      if (received == 0) {
        if (!try_reconnect()) {
          run.failure = "error: daemon closed the connection mid-load";
          return;
        }
        continue;
      }
      framer.feed(std::string_view(buffer.data(), received));
      while (framer.next_line(line)) {
        const Response response = parse_response(line);
        const auto started = in_flight_start_s.find(response.id);
        if (started == in_flight_start_s.end()) {
          require(false, "loadgen: response id " + std::to_string(response.id) +
                             " was never sent");
        }
        const double latency_s = watch.seconds() - started->second;
        in_flight_start_s.erase(started);
        Slot& slot = slots[id_to_slot.at(response.id)];
        if (retryable_error(response) && slot.retries_left > 0) {
          // Shed or expired: the server asked us to back off, so the retry
          // joins the back of the line instead of pushing in front.
          --slot.retries_left;
          ++run.retried;
          ready.push_back(id_to_slot.at(response.id));
          continue;
        }
        if (run.keep_responses) run.responses.emplace_back(response.id, line);
        // Latency of the terminal answer, measured from its own (re-)send.
        run.latencies_s.push_back(latency_s);
        obs::observe(latency_histogram(), reported_seconds(latency_s));
        if (response.ok) {
          ++run.ok;
          obs::add(ok_counter());
        } else {
          ++run.errors;
          obs::add(error_counter());
        }
        ++completed;
      }
    }
  } catch (...) {
    run.failure = current_exception_taxonomy();
  }
}

}  // namespace

const char* to_string(Mix mix) {
  switch (mix) {
    case Mix::Route: return "route";
    case Mix::Kalt: return "kalt";
    case Mix::Attack: return "attack";
    case Mix::Table: return "table";
    case Mix::Mixed: return "mixed";
  }
  return "?";
}

Mix parse_mix(std::string_view token) {
  if (token == "route") return Mix::Route;
  if (token == "kalt") return Mix::Kalt;
  if (token == "attack") return Mix::Attack;
  if (token == "table") return Mix::Table;
  if (token == "mixed") return Mix::Mixed;
  throw InvalidInput("unknown mix '" + std::string(token) + "' (route|kalt|attack|table|mixed)");
}

double reconnect_backoff_s(std::uint64_t seed, std::size_t connection, std::size_t attempt) {
  constexpr double kBase_s = 0.010;
  constexpr double kCap_s = 0.640;
  const std::size_t doublings = attempt > 0 ? std::min<std::size_t>(attempt - 1, 6) : 0;
  const double exp_s = std::min(kCap_s, kBase_s * static_cast<double>(std::uint64_t{1} << doublings));
  // A private stream per (seed, connection, attempt): jitter decorrelates
  // reconnect herds without any shared RNG state across threads.
  Rng rng(derive_seed(seed, {0x62636b6fULL, connection, attempt}));  // "bcko"
  return exp_s * (0.5 + 0.5 * rng.uniform());
}

Response request_once(const std::string& host, std::uint16_t port, const Request& request) {
  const Socket socket = connect_to(host, port);
  socket.write_all(serialize_request(request) + "\n");
  LineFramer framer;
  std::vector<char> buffer(4096);
  std::string line;
  for (;;) {
    const std::size_t received = socket.read_some(buffer.data(), buffer.size());
    if (received == 0) throw Error("request_once: daemon closed the connection");
    framer.feed(std::string_view(buffer.data(), received));
    if (framer.next_line(line)) break;
  }
  return parse_response(line);
}

std::vector<Request> synthesize_requests(const LoadgenOptions& options, std::size_t num_nodes) {
  require(num_nodes >= 2, "synthesize_requests: graph must have >= 2 nodes");
  std::vector<Request> requests;
  requests.reserve(options.requests);
  Rng rng(derive_seed(options.seed, {0x6c67656eULL}));  // "lgen" stream
  for (std::uint64_t i = 0; i < options.requests; ++i) {
    Request request;
    request.id = i + 1;
    request.weight = options.weight;
    request.source = static_cast<std::uint32_t>(rng.uniform_index(num_nodes));
    do {
      request.target = static_cast<std::uint32_t>(rng.uniform_index(num_nodes));
    } while (request.target == request.source);
    Mix kind = options.mix;
    if (kind == Mix::Mixed) {
      // Service-shaped blend: mostly routes, some alternatives, rare attacks.
      const double draw = rng.uniform();
      kind = draw < 0.80 ? Mix::Route : (draw < 0.95 ? Mix::Kalt : Mix::Attack);
    }
    switch (kind) {
      case Mix::Route:
        request.verb = Verb::Route;
        break;
      case Mix::Kalt:
        request.verb = Verb::Kalt;
        request.k = options.kalt_k;
        break;
      case Mix::Attack:
        request.verb = Verb::Attack;
        request.rank = options.attack_rank;
        request.algorithm = attack::Algorithm::GreedyPathCover;
        break;
      case Mix::Table: {
        // The shared source/target draws above become the first row/column
        // node, keeping every pre-table mix's stream byte-identical.
        request.verb = Verb::Table;
        request.sources.push_back(request.source);
        request.targets.push_back(request.target);
        for (std::uint32_t j = 1; j < kTableDim; ++j) {
          request.sources.push_back(static_cast<std::uint32_t>(rng.uniform_index(num_nodes)));
        }
        for (std::uint32_t j = 1; j < kTableDim; ++j) {
          request.targets.push_back(static_cast<std::uint32_t>(rng.uniform_index(num_nodes)));
        }
        break;
      }
      case Mix::Mixed:
        throw InvariantViolation("mixed kind must have been resolved");
    }
    requests.push_back(request);
  }
  return requests;
}

LoadReport run_loadgen(const std::string& host, std::uint16_t port,
                       const LoadgenOptions& options) {
  require(options.connections >= 1, "loadgen: connections must be >= 1");
  require(options.window >= 1, "loadgen: window must be >= 1");
  const std::size_t num_nodes = query_num_nodes(host, port);
  const std::vector<Request> requests = synthesize_requests(options, num_nodes);

  std::vector<ConnectionRun> runs(options.connections);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].connection_index = i;
    runs[i].keep_responses = !options.dump_path.empty();
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    runs[i % runs.size()].assigned.push_back(&requests[i]);
  }

  const Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(runs.size());
  for (ConnectionRun& run : runs) {
    threads.emplace_back(
        [&host, port, &options, &run] { replay_connection(host, port, options, run); });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_s = wall.seconds();

  LoadReport report;
  std::vector<double> latencies;
  for (const ConnectionRun& run : runs) {
    report.sent += run.sent;
    report.ok += run.ok;
    report.errors += run.errors;
    report.retried += run.retried;
    report.reconnects += run.reconnects;
    latencies.insert(latencies.end(), run.latencies_s.begin(), run.latencies_s.end());
    if (!run.failure.empty()) {
      ++report.failed_connections;
      if (report.first_failure.empty()) report.first_failure = run.failure;
    }
  }
  report.completed = report.ok + report.errors;
  report.dropped = report.sent - report.completed;
  report.partial = report.dropped > 0 || report.failed_connections > 0;

  if (!options.dump_path.empty()) {
    // Sorted by id, the dump is independent of connection interleaving, so
    // equal-stream runs diff cleanly byte for byte.
    std::vector<std::pair<std::uint64_t, std::string>> lines;
    for (ConnectionRun& run : runs) {
      lines.insert(lines.end(), std::make_move_iterator(run.responses.begin()),
                   std::make_move_iterator(run.responses.end()));
    }
    std::sort(lines.begin(), lines.end());
    std::ofstream out(options.dump_path);
    require(out.good(), "loadgen: cannot open dump file " + options.dump_path);
    for (const auto& [id, text] : lines) out << text << '\n';
    require(out.good(), "loadgen: failed writing dump file " + options.dump_path);
  }
  report.wall_s = reported_seconds(wall_s);
  report.qps =
      reported_seconds(wall_s > 0.0 ? static_cast<double>(report.completed) / wall_s : 0.0);
  // Percentiles come from the shared mts::percentile (interpolating, the
  // same estimator the table stats use), not a private cut — it requires a
  // non-empty sample, so the all-dropped case is guarded explicitly.
  report.p50_s = reported_seconds(latencies.empty() ? 0.0 : percentile(latencies, 0.50));
  report.p99_s = reported_seconds(latencies.empty() ? 0.0 : percentile(latencies, 0.99));
  report.max_s =
      reported_seconds(latencies.empty() ? 0.0 : *std::max_element(latencies.begin(),
                                                                   latencies.end()));
  double sum = 0.0;
  for (const double latency : latencies) sum += latency;
  report.mean_s = reported_seconds(
      latencies.empty() ? 0.0 : sum / static_cast<double>(latencies.size()));
  return report;
}

}  // namespace mts::net
