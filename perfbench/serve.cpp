// The two serving workloads: an in-process routed daemon (net::RoutedServer
// over a Chicago snapshot) driven over loopback TCP by the benchmark's own
// client threads.
//
//   serve_route  closed loop: every connection keeps a fixed window of
//                pipelined `route` requests in flight, so the daemon runs at
//                saturation and the net layer's per-request cost shows.
//   serve_mixed  open loop: the net::synthesize_requests Mixed stream (80%
//                route, 15% kalt, 5% attack) sent on a fixed schedule at
//                about half of this commit's two-worker capacity; latency
//                runs from each request's due time.
//
// After the timed window every route distance is checked against an
// independent graph Dijkstra at wire precision, and every kalt/attack
// response must be byte-equal to a fresh QueryEngine's answer.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "citygen/generate.hpp"
#include "core/thread_pool.hpp"
#include "graph/ch_assets.hpp"
#include "graph/dijkstra.hpp"
#include "net/engine.hpp"
#include "net/framing.hpp"
#include "net/loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"

namespace perfbench {

namespace {

using mts::net::Request;
using mts::net::Verb;

constexpr std::uint64_t kCitySeed = 7;
constexpr double kScale = 1.0;
constexpr std::size_t kRouteWorkers = 2;
constexpr std::size_t kMixedWorkers = 4;
// serve_route: one pipelined connection keeps the client, reader and writer
// at one thread each, so with two workers the busy threads nearly fit four
// cores; two connections doubled the run-to-run spread.
constexpr std::size_t kRouteConnections = 1;
constexpr std::size_t kRouteWindow = 32;       // in-flight requests on that connection
constexpr std::size_t kMixedConnections = 2;
constexpr std::size_t kRouteStream = 16384;    // distinct route requests, cycled
constexpr std::size_t kTracedLaps = 4;         // passes over the stream in the fixed-work pass
// Offered load on serve_mixed: about a quarter of this commit's capacity
// with four workers (~1.5k requests/s).  At half capacity the seed's attack
// bursts decided how long routes queued, and latency spread across seeds by
// over 25% at the median.
constexpr double kMixedRate = 380.0;           // requests/s
constexpr double kWarmup_s = 1.0;
constexpr int kSetupReps = 3;
/// The open-loop sender is behind its schedule (the run is invalid) when its
/// p99 lateness exceeds this.
constexpr double kMaxLateness_s = 0.050;
const std::string kHost = "127.0.0.1";

/// Snapshot + daemon with its accept loop on a thread; the destructor stops
/// and joins it on every path.
struct Daemon {
  std::unique_ptr<mts::net::Snapshot> snapshot;
  std::unique_ptr<mts::net::RoutedServer> server;
  std::thread accept_thread;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (accept_thread.joinable()) {
      server->request_stop();
      accept_thread.join();
    }
  }
  void serve() {
    accept_thread = std::thread([this] { server->serve(); });
  }
};

std::unique_ptr<Daemon> start_daemon(std::size_t workers) {
  auto daemon = std::make_unique<Daemon>();
  daemon->snapshot = std::make_unique<mts::net::Snapshot>(
      mts::citygen::generate_city(mts::citygen::City::Chicago, kScale, kCitySeed));
  mts::net::RoutedOptions options;
  options.host = kHost;
  options.threads = workers;
  daemon->server = std::make_unique<mts::net::RoutedServer>(*daemon->snapshot, options);
  daemon->server->start();
  return daemon;
}

/// Request id from a response line ("ok <id> ..." / "err <id> ...").
std::uint64_t response_id(const std::string& line) {
  const auto space = line.find(' ');
  return space == std::string::npos ? 0 : std::strtoull(line.c_str() + space + 1, nullptr, 10);
}

/// The response after its id: equal for equal requests whatever their ids.
std::string payload_of(const std::string& line) {
  const auto first = line.find(' ');
  const auto second = first == std::string::npos ? first : line.find(' ', first + 1);
  return second == std::string::npos ? line : line.substr(0, first) + line.substr(second);
}

// --- closed loop (serve_route) ---

struct ClosedConnection {
  /// Latencies of the requests completed in each slice of the measured window.
  std::vector<std::vector<double>> slices;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;        // repeat answers differing from the first
  std::string failure;
};

/// Replays this connection's share of the stream (indices c, c+C, ...) with
/// `kRouteWindow` requests in flight until `stop_s` on `clock` or until
/// `max_requests` were sent (0 = no cap); then drains what is in flight.
/// `first_payload[i]` keeps the first answer to stream index i.
void closed_loop(std::uint16_t port, const std::vector<Request>& stream, std::size_t c,
                 Clock::time_point clock, double warm_s, double stop_s, double slice_s,
                 std::uint64_t max_requests, std::vector<std::string>& first_payload,
                 ClosedConnection& out) {
  try {
    mts::net::Socket socket = mts::net::connect_to(kHost, port);
    struct InFlight {
      std::size_t index = 0;
      double sent_s = 0.0;
    };
    // Keyed by id: a slow request may stay in flight while many later ones
    // complete, so ids in flight are not a bounded contiguous range.
    std::unordered_map<std::uint64_t, InFlight> in_flight;
    std::uint64_t seq = 0;
    std::size_t next = c;
    mts::net::LineFramer framer;
    std::vector<char> buffer(64 * 1024);
    std::string line;
    std::string burst;
    for (;;) {
      const double now_s = seconds_since(clock);
      const bool sending = now_s < stop_s && (max_requests == 0 || out.sent < max_requests);
      burst.clear();
      while (sending && in_flight.size() < kRouteWindow &&
             (max_requests == 0 || out.sent < max_requests)) {
        Request request = stream[next];
        request.id = seq * kRouteConnections + c + 1;
        in_flight[request.id] = {next, now_s};
        burst += mts::net::serialize_request(request);
        burst += '\n';
        ++seq;
        ++out.sent;
        next += kRouteConnections;
        if (next >= stream.size()) next = c;
      }
      if (!burst.empty()) socket.write_all(burst);
      if (in_flight.empty()) break;
      const std::size_t received = socket.read_some(buffer.data(), buffer.size());
      if (received == 0) {
        out.failure = "daemon closed the connection";
        break;
      }
      framer.feed(std::string_view(buffer.data(), received));
      const double done_s = seconds_since(clock);
      while (framer.next_line(line)) {
        const auto found = in_flight.find(response_id(line));
        if (found == in_flight.end()) {
          out.failure = "unexpected response '" + line + "'";
          return;
        }
        const InFlight slot = found->second;
        in_flight.erase(found);
        ++out.answered;
        if (line.compare(0, 3, "ok ") != 0) ++out.errors;
        std::string payload = payload_of(line);
        std::string& first = first_payload[slot.index];
        if (first.empty()) {
          first = std::move(payload);
        } else if (first != payload) {
          ++out.mismatches;
        }
        if (done_s >= warm_s && done_s < stop_s) {
          const auto k = static_cast<std::size_t>((done_s - warm_s) / slice_s);
          if (k < out.slices.size()) out.slices[k].push_back(done_s - slot.sent_s);
        }
      }
    }
  } catch (const std::exception& error) {
    out.failure = error.what();
  }
}

/// Medians over the one-second slices of the measured window, so a
/// scheduling hiccup moves one slice rather than the run.
struct ClosedRun {
  std::vector<ClosedConnection> connections;
  double elapsed_s = 0.0;
  std::vector<double> latencies_s;  // every measured request
  double qps = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
};

ClosedRun run_closed(std::uint16_t port, const std::vector<Request>& stream, double seconds,
                     std::uint64_t max_requests, std::vector<std::string>& first_payload) {
  ClosedRun run;
  run.connections.resize(kRouteConnections);
  const std::size_t slices = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  const double slice_s = seconds / static_cast<double>(slices);
  const double warm_s = max_requests == 0 ? kWarmup_s : 0.0;
  const double stop_s = max_requests == 0 ? warm_s + seconds : 1e9;
  for (auto& connection : run.connections) connection.slices.resize(slices);
  const auto clock = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kRouteConnections; ++c) {
      threads.emplace_back([&, c] {
        closed_loop(port, stream, c, clock, warm_s, stop_s, slice_s, max_requests,
                    first_payload, run.connections[c]);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  run.elapsed_s = seconds_since(clock);
  std::vector<double> qps, p50, p90;
  for (std::size_t k = 0; k < slices; ++k) {
    std::vector<double> slice;
    for (const auto& connection : run.connections) {
      slice.insert(slice.end(), connection.slices[k].begin(), connection.slices[k].end());
    }
    qps.push_back(static_cast<double>(slice.size()) / slice_s);
    p50.push_back(quantile(slice, 0.50));
    p90.push_back(quantile(slice, 0.90));
    run.latencies_s.insert(run.latencies_s.end(), slice.begin(), slice.end());
  }
  run.qps = median(qps);
  run.p50_s = median(p50);
  run.p90_s = median(p90);
  return run;
}

// --- open loop (serve_mixed) ---

struct OpenRun {
  std::vector<double> due_s;      // per stream index
  std::vector<double> done_s;     // per stream index; < 0 = never answered
  std::vector<std::string> lines; // per stream index: the raw response
  std::vector<double> lateness_s; // sender lateness per request
  double end_s = 0.0;             // last response
};

OpenRun run_open(std::uint16_t port, const std::vector<Request>& stream, double rate) {
  OpenRun run;
  const std::size_t n = stream.size();
  run.due_s.resize(n);
  run.done_s.assign(n, -1.0);
  run.lines.resize(n);
  run.lateness_s.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) run.due_s[i] = static_cast<double>(i) / rate;

  std::vector<mts::net::Socket> sockets;
  for (std::size_t c = 0; c < kMixedConnections; ++c) sockets.push_back(mts::net::connect_to(kHost, port));
  std::mutex mutex;
  std::condition_variable receiver_done;
  std::size_t answered = 0;
  std::size_t receivers_done = 0;
  const auto clock = Clock::now();

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kMixedConnections; ++c) {
    // Receiver: record completion times by id until every request of this
    // connection is answered or the socket ends.
    threads.emplace_back([&, c] {
      mts::net::LineFramer framer;
      std::vector<char> buffer(64 * 1024);
      std::string line;
      std::size_t expected = 0;
      for (std::size_t i = c; i < n; i += kMixedConnections) ++expected;
      std::size_t got = 0;
      try {
        while (got < expected) {
          const std::size_t received = sockets[c].read_some(buffer.data(), buffer.size());
          if (received == 0) break;
          framer.feed(std::string_view(buffer.data(), received));
          const double now_s = seconds_since(clock);
          while (framer.next_line(line)) {
            const std::uint64_t id = response_id(line);
            if (id == 0 || id > n || run.done_s[id - 1] >= 0.0) continue;
            run.done_s[id - 1] = now_s;
            run.lines[id - 1] = line;
            ++got;
          }
        }
      } catch (const std::exception&) {
        // Counted as unanswered below.
      }
      std::lock_guard<std::mutex> lock(mutex);
      answered += got;
      ++receivers_done;
      receiver_done.notify_all();
    });
  }
  for (std::size_t c = 0; c < kMixedConnections; ++c) {
    threads.emplace_back([&, c] {
      std::string wire;
      try {
        for (std::size_t i = c; i < n; i += kMixedConnections) {
          const auto due = clock + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(run.due_s[i]));
          std::this_thread::sleep_until(due);
          run.lateness_s[i] = seconds_since(clock) - run.due_s[i];
          wire = mts::net::serialize_request(stream[i]);
          wire += '\n';
          sockets[c].write_all(wire);
        }
      } catch (const std::exception&) {
        // The receiver sees the dead socket; unanswered requests count.
      }
    });
  }
  // Bound the drain: a daemon that stops answering must not hang the run.
  bool complete = false;
  {
    std::unique_lock<std::mutex> lock(mutex);
    const double limit_s = static_cast<double>(n) / rate + 60.0;
    receiver_done.wait_for(lock, std::chrono::duration<double>(limit_s),
                           [&] { return receivers_done == kMixedConnections; });
    complete = answered == n;
  }
  if (!complete) {
    for (auto& socket : sockets) socket.shutdown_both();
  }
  for (auto& thread : threads) thread.join();
  for (const double done : run.done_s) run.end_s = std::max(run.end_s, done);
  return run;
}

struct VerbLatency {
  std::vector<double> all, route, kalt, attack;  // seconds, due -> answered
};

VerbLatency open_latencies(const OpenRun& run, const std::vector<Request>& stream) {
  VerbLatency out;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (run.due_s[i] < kWarmup_s || run.done_s[i] < 0.0) continue;
    const double latency = run.done_s[i] - run.due_s[i];
    out.all.push_back(latency);
    if (stream[i].verb == Verb::Route) out.route.push_back(latency);
    if (stream[i].verb == Verb::Kalt) out.kalt.push_back(latency);
    if (stream[i].verb == Verb::Attack) out.attack.push_back(latency);
  }
  return out;
}

double open_qps(const OpenRun& run) {
  std::size_t counted = 0;
  for (std::size_t i = 0; i < run.due_s.size(); ++i) {
    if (run.due_s[i] >= kWarmup_s && run.done_s[i] >= 0.0) ++counted;
  }
  return share(static_cast<double>(counted), run.end_s - kWarmup_s);
}

// --- correctness ---

/// Checks `dist=` of route answers against a plain Dijkstra per source.
/// `answers` pairs each route request with its response line (or payload).
void check_routes(const mts::net::Snapshot& snapshot,
                  const std::vector<std::pair<const Request*, const std::string*>>& answers,
                  Outcome& outcome) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_source;
  for (std::size_t k = 0; k < answers.size(); ++k) by_source[answers[k].first->source].push_back(k);
  const auto& weights = snapshot.weights(true);
  for (const auto& [source, indices] : by_source) {
    const auto tree = mts::dijkstra(snapshot.graph(), weights, mts::NodeId(source));
    for (const std::size_t k : indices) {
      const Request& request = *answers[k].first;
      const std::string& line = *answers[k].second;
      const std::string want =
          " dist=" + mts::net::format_wire_double(tree.dist[request.target]) + " ";
      if (line.compare(0, 3, "ok ") != 0 || line.find(" found=1 ") == std::string::npos ||
          line.find(want) == std::string::npos) {
        outcome.fail("route " + std::to_string(source) + "->" + std::to_string(request.target) +
                     " answered '" + line + "', Dijkstra says" + want);
      }
    }
  }
}

struct EngineReplay {
  std::vector<std::string> lines;  // per replayed request
  std::vector<double> seconds;     // QueryEngine::handle time per request
};

/// Answers `requests` with fresh QueryEngines, `engines` of them in parallel
/// (each engine on one thread, as a daemon worker uses it).
EngineReplay replay_engine(const mts::net::Snapshot& snapshot,
                           const std::vector<const Request*>& requests, std::size_t engines) {
  EngineReplay out;
  out.lines.resize(requests.size());
  out.seconds.resize(requests.size());
  std::vector<std::thread> threads;
  for (std::size_t e = 0; e < engines; ++e) {
    threads.emplace_back([&, e] {
      mts::net::QueryEngine engine(snapshot, mts::WorkBudget{});
      for (std::size_t k = e; k < requests.size(); k += engines) {
        const auto start = Clock::now();
        const auto response = engine.handle(*requests[k]);
        out.seconds[k] = seconds_since(start);
        out.lines[k] = mts::net::serialize_response(response);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return out;
}

/// Mean seconds per call of `fn` over `count` items, repeated until at least
/// 50 ms were timed.
template <typename Fn>
double mean_call_s(std::size_t count, Fn&& fn) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t k = 0; k < count; ++k) fn(k);
    calls += count;
  } while (seconds_since(start) < 0.05);
  return seconds_since(start) / static_cast<double>(calls);
}

std::string stream_digest(const std::vector<Request>& stream) {
  std::uint64_t hash = fnv1a("");
  for (const Request& request : stream) hash = fnv1a(mts::net::serialize_request(request) + "\n", hash);
  return hex64(hash);
}

/// Samples the daemon's queued+executing gauge every millisecond.
class DepthSampler {
 public:
  explicit DepthSampler(const mts::net::RoutedServer& server)
      : thread_([this, &server] {
          while (!stop_.load()) {
            samples_.push_back(static_cast<double>(server.stats().queue_depth));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;
  ~DepthSampler() { finish(); }
  std::vector<double> finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;
  std::thread thread_;  // declared last: starts after the members it uses
};

}  // namespace

Outcome run_serve_workload(const Args& args) {
  const bool mixed = args.workload == "serve_mixed";
  Outcome outcome;

  // Set-up: map generated, Snapshot built (CH preprocessing included) and
  // RoutedServer::start returned.  The last daemon is the one measured.
  std::vector<double> setup_s;
  const std::size_t workers = mixed ? kMixedWorkers : kRouteWorkers;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const auto start = Clock::now();
    daemon = start_daemon(workers);
    setup_s.push_back(seconds_since(start));
  }
  daemon->serve();
  const mts::net::Snapshot& snapshot = *daemon->snapshot;
  mts::net::RoutedServer& server = *daemon->server;
  const std::uint16_t port = server.port();

  mts::net::LoadgenOptions stream_options;
  stream_options.seed = args.seed;
  stream_options.mix = mixed ? mts::net::Mix::Mixed : mts::net::Mix::Route;
  stream_options.requests =
      mixed ? static_cast<std::uint64_t>(std::ceil(kMixedRate * (args.seconds + kWarmup_s)))
            : kRouteStream;
  stream_options.kalt_k = 4;
  stream_options.attack_rank = 8;
  const std::vector<Request> stream =
      mts::net::synthesize_requests(stream_options, snapshot.num_nodes());

  // Timed window, tracing off.
  DepthSampler sampler(server);
  ClosedRun closed;
  OpenRun open;
  std::vector<std::string> first_payload(stream.size());
  double qps = 0.0;
  // The tail is p99 on serve_mixed but p90 on serve_route: at saturation
  // five busy threads share four cores, so serve_route's p99 is set by the
  // scheduler's time slices and host CPU steal, and across ten seeds it
  // spread by 43% of its median.
  double p50_s = 0.0;
  double tail_s = 0.0;
  const double tail_q = mixed ? 0.99 : 0.90;
  VerbLatency verbs;
  if (mixed) {
    open = run_open(port, stream, kMixedRate);
    verbs = open_latencies(open, stream);
    qps = open_qps(open);
    p50_s = quantile(verbs.all, 0.50);
    tail_s = quantile(verbs.all, tail_q);
  } else {
    closed = run_closed(port, stream, args.seconds, 0, first_payload);
    verbs.all = closed.latencies_s;
    verbs.route = closed.latencies_s;
    qps = closed.qps;
    p50_s = closed.p50_s;
    tail_s = closed.p90_s;
  }
  const std::vector<double> depth = sampler.finish();
  const auto window = server.window_snapshot();
  const auto stats = server.stats();

  // Correctness.
  std::vector<std::pair<const Request*, const std::string*>> routes;
  std::vector<const Request*> replayed;
  std::vector<const std::string*> received;
  if (mixed) {
    outcome.attempted = stream.size();
    if (args.plant_wrong_answer) {
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].verb != Verb::Route && !open.lines[i].empty()) {
          open.lines[i] += "0";
          break;
        }
      }
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (open.done_s[i] < 0.0) {
        outcome.fail("request " + std::to_string(stream[i].id) + " never answered");
      } else if (stream[i].verb == Verb::Route) {
        routes.emplace_back(&stream[i], &open.lines[i]);
      } else {
        replayed.push_back(&stream[i]);
        received.push_back(&open.lines[i]);
      }
    }
    if (args.trace) {
      // Trace runs also time the engine on routes, so replay everything.
      for (auto& [request, line] : routes) {
        replayed.push_back(request);
        received.push_back(line);
      }
    }
  } else {
    for (const auto& connection : closed.connections) {
      outcome.attempted += connection.sent;
      if (!connection.failure.empty()) outcome.fail("connection: " + connection.failure);
      for (std::uint64_t k = 0; k < connection.sent - connection.answered; ++k) {
        outcome.fail("request never answered");
      }
      for (std::uint64_t k = 0; k < connection.errors; ++k) outcome.fail("err response");
      for (std::uint64_t k = 0; k < connection.mismatches; ++k) {
        outcome.fail("repeated route answered differently");
      }
    }
    if (args.plant_wrong_answer) {
      for (auto& payload : first_payload) {
        const auto at = payload.find(" dist=");
        if (at == std::string::npos) continue;
        payload.insert(at + 6, "1");
        break;
      }
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (!first_payload[i].empty()) routes.emplace_back(&stream[i], &first_payload[i]);
    }
  }
  check_routes(snapshot, routes, outcome);
  const std::size_t engines = args.trace ? 1 : std::max<std::size_t>(1, mts::num_threads());
  EngineReplay engine;
  if (mixed) {
    engine = replay_engine(snapshot, replayed, engines);
    for (std::size_t k = 0; k < replayed.size(); ++k) {
      if (engine.lines[k] != *received[k]) {
        outcome.fail("request " + std::to_string(replayed[k]->id) + " answered '" + *received[k] +
                     "', a fresh engine says '" + engine.lines[k] + "'");
      }
    }
  }

  std::vector<double> lateness_s;
  for (std::size_t i = 0; i < open.lateness_s.size(); ++i) {
    if (open.due_s[i] >= kWarmup_s) lateness_s.push_back(open.lateness_s[i]);
  }
  const double late_p99_s = quantile(lateness_s, 0.99);
  if (mixed && late_p99_s > kMaxLateness_s) outcome.valid = false;

  outcome.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_per_s", qps, "1/s"},
      {"latency_p50_ms", 1e3 * p50_s, "ms"},
      {"latency_tail_ms", 1e3 * tail_s, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  outcome.fact("server_workers", static_cast<double>(workers));
  outcome.fact("connections", static_cast<double>(mixed ? kMixedConnections : kRouteConnections));
  outcome.fact("loop", mixed ? "open" : "closed");
  if (mixed) {
    outcome.fact("offered_rate_per_s", kMixedRate);
    outcome.fact("gen_late_p99_ms", 1e3 * late_p99_s);
  } else {
    outcome.fact("window", static_cast<double>(kRouteWindow));
  }
  outcome.fact("samples", static_cast<double>(verbs.all.size()));
  outcome.fact("tail_percentile", 100.0 * tail_q);
  outcome.fact("route_p50_ms", 1e3 * quantile(verbs.route, 0.50));
  outcome.fact("route_p99_ms", 1e3 * quantile(verbs.route, 0.99));
  if (mixed) {
    outcome.fact("kalt_p50_ms", 1e3 * quantile(verbs.kalt, 0.50));
    outcome.fact("kalt_p98_ms", 1e3 * quantile(verbs.kalt, 0.98));
    outcome.fact("attack_p50_ms", 1e3 * quantile(verbs.attack, 0.50));
    outcome.fact("attack_p90_ms", 1e3 * quantile(verbs.attack, 0.90));
    outcome.fact("kalt_samples", static_cast<double>(verbs.kalt.size()));
    outcome.fact("attack_samples", static_cast<double>(verbs.attack.size()));
  }
  outcome.fact("inputs_digest", stream_digest(stream));
  if (!args.trace) return outcome;

  // Engine time per verb, single-threaded.  serve_route replays its whole
  // distinct stream; serve_mixed already replayed every request above.
  if (!mixed) {
    replayed.clear();
    for (const Request& request : stream) replayed.push_back(&request);
    engine = replay_engine(snapshot, replayed, 1);
  }
  std::map<Verb, std::vector<double>> engine_s;
  for (std::size_t k = 0; k < replayed.size(); ++k) {
    engine_s[replayed[k]->verb].push_back(engine.seconds[k]);
  }
  const double engine_route_s = median(engine_s[Verb::Route]);
  const double engine_attack_s = median(engine_s[Verb::Attack]);
  const double route_p50_s = quantile(verbs.route, 0.50);
  const double attack_p50_s = quantile(verbs.attack, 0.50);

  std::vector<std::string> request_lines;
  for (const Request& request : stream) request_lines.push_back(mts::net::serialize_request(request));
  std::vector<mts::net::Response> responses;
  for (const auto& line : engine.lines) responses.push_back(mts::net::parse_response(line));
  const double parse_s = mean_call_s(request_lines.size(), [&](std::size_t k) {
    (void)mts::net::parse_request(request_lines[k]);
  });
  const double serialize_s = mean_call_s(responses.size(), [&](std::size_t k) {
    (void)mts::net::serialize_response(responses[k]);
  });

  auto start = Clock::now();
  (void)mts::citygen::generate_city(mts::citygen::City::Chicago, kScale, kCitySeed);
  const double generate_s = seconds_since(start);
  start = Clock::now();
  (void)mts::ChAssets::build(snapshot.graph(), snapshot.weights(true));
  const double ch_build_s = seconds_since(start);

  // Fixed-work passes, untraced and traced in turn, for the overhead and the
  // registry counters: the first traced pass sends a fixed request list, so
  // its counters repeat exactly for a seed.
  std::vector<std::string> fixed_payload(stream.size());
  const std::uint64_t fixed_requests = kTracedLaps * kRouteStream / kRouteConnections;
  const auto fixed_pass = [&] {
    if (mixed) return median(open_latencies(run_open(port, stream, kMixedRate), stream).all);
    return run_closed(port, stream, 0.0, fixed_requests, fixed_payload).elapsed_s;
  };
  double untraced_cost = 0.0;
  double traced_cost = 0.0;
  std::optional<LayerView> traced;
  const auto traced_pass = [&] {
    TracedPass pass;
    traced_cost += fixed_pass();
    if (!traced) traced.emplace(pass.stop());
  };
  // Each side runs first in every other pair; serve_mixed's pass is the
  // whole window, so it gets one pair.
  for (int pair = 0; pair < (mixed ? 1 : 2); ++pair) {
    if (pair % 2 == 0) {
      untraced_cost += fixed_pass();
      traced_pass();
    } else {
      traced_pass();
      untraced_cost += fixed_pass();
    }
  }
  const LayerView& view = *traced;

  auto& layers = outcome.per_layer;
  layers = {
      {"citygen.generate_s", generate_s, "s"},
      {"ch.build_s", ch_build_s, "s"},
      {"net.engine_route_us", 1e6 * engine_route_s, "us"},
      {"net.engine_kalt_ms", 1e3 * median(engine_s[Verb::Kalt]), "ms"},
      {"net.engine_attack_ms", 1e3 * engine_attack_s, "ms"},
      {"net.parse_us", 1e6 * parse_s, "us"},
      {"net.serialize_us", 1e6 * serialize_s, "us"},
      {"net.server_overhead_us", 1e6 * (route_p50_s - engine_route_s), "us"},
      {"net.server_p50_ms", 1e3 * window.p50_s, "ms"},
      {"net.server_p99_ms", 1e3 * window.p99_s, "ms"},
      {"net.queue_depth_p99", quantile(depth, 0.99), "requests"},
      {"net.shed", static_cast<double>(stats.shed), "count"},
      {"net.deadline_exceeded", static_cast<double>(stats.deadline_exceeded), "count"},
      {"net.route_engine_share", share(engine_route_s, route_p50_s), "ratio"},
      {"net.attack_engine_share", share(engine_attack_s, attack_p50_s), "ratio"},
      {"client.route_p50_ms", 1e3 * route_p50_s, "ms"},
      {"client.route_p99_ms", 1e3 * quantile(verbs.route, 0.99), "ms"},
      {"client.kalt_p50_ms", 1e3 * quantile(verbs.kalt, 0.50), "ms"},
      {"client.kalt_p98_ms", 1e3 * quantile(verbs.kalt, 0.98), "ms"},
      {"client.attack_p50_ms", 1e3 * attack_p50_s, "ms"},
      {"client.attack_p90_ms", 1e3 * quantile(verbs.attack, 0.90), "ms"},
      {"gen.late_p99_ms", 1e3 * late_p99_s, "ms"},
      {"trace.overhead_share", traced_cost / untraced_cost - 1.0, "ratio"},
  };
  append_registry_layers(view, layers);
  return outcome;
}

}  // namespace perfbench
