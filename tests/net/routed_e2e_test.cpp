// End-to-end tests for the routed daemon: a real RoutedServer on an
// ephemeral loopback port, exercised by raw protocol clients and by
// run_loadgen.  The snapshot is built once per process from a small
// generated city.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "citygen/generate.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "obs/metrics.hpp"
#include "net/framing.hpp"
#include "net/loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"
#include "test_util.hpp"

namespace mts::net {
namespace {

const Snapshot& test_snapshot() {
  static const Snapshot snapshot(citygen::generate_city(citygen::City::Chicago, 0.15, 5));
  return snapshot;
}

/// A RoutedServer with serve() running on a background thread; the
/// destructor drains it.  Each test builds its own so option changes
/// (budgets) and stats stay isolated.
class ServerHarness {
 public:
  explicit ServerHarness(RoutedOptions options = {})
      : server_(test_snapshot(), [&] {
          options.threads = 2;
          return options;
        }()) {
    server_.start();
    serve_thread_ = std::thread([this] { server_.serve(); });
  }

  ~ServerHarness() {
    server_.request_stop();
    serve_thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] RoutedStats stats() const { return server_.stats(); }

 private:
  RoutedServer server_;
  std::thread serve_thread_;
};

/// Minimal blocking client: sends request lines, reads response lines.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) : socket_(connect_to("127.0.0.1", port)) {}

  void send_line(const std::string& line) { socket_.write_all(line + "\n"); }

  Response read_response() {
    std::string line;
    while (!framer_.next_line(line)) {
      char buf[512];
      const std::size_t n = socket_.read_some(buf, sizeof buf);
      require(n > 0, "daemon closed the connection while a response was expected");
      framer_.feed(std::string_view(buf, n));
    }
    return parse_response(line);
  }

 private:
  Socket socket_;
  LineFramer framer_;
};

TEST(RoutedE2e, AnswersEveryVerb) {
  ServerHarness harness;
  TestClient client(harness.port());

  client.send_line("ping 1");
  Response pong = client.read_response();
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, 1u);
  EXPECT_EQ(pong.verb, "pong");

  client.send_line("graph 2");
  Response graph = client.read_response();
  ASSERT_TRUE(graph.ok);
  EXPECT_EQ(graph.field("nodes"), std::to_string(test_snapshot().num_nodes()));
  EXPECT_EQ(graph.field("edges"), std::to_string(test_snapshot().num_edges()));

  client.send_line("route 3 0 1");
  Response route = client.read_response();
  ASSERT_TRUE(route.ok);
  EXPECT_EQ(route.verb, "route");
  EXPECT_FALSE(route.field("found").empty());
  EXPECT_FALSE(route.field("dist").empty());

  client.send_line("kalt 4 0 1 4");
  Response kalt = client.read_response();
  ASSERT_TRUE(kalt.ok);
  EXPECT_FALSE(kalt.field("paths").empty());

  client.send_line("attack 5 0 1 2 greedy-pathcover");
  Response atk = client.read_response();
  ASSERT_TRUE(atk.ok);
  EXPECT_FALSE(atk.field("status").empty());
}

TEST(RoutedE2e, PipelinedRequestsAllAnswered) {
  ServerHarness harness;
  TestClient client(harness.port());
  // One write syscall carrying many requests; responses may arrive in any
  // order but every id must be answered exactly once.
  std::string burst;
  for (int i = 1; i <= 32; ++i) {
    burst += "route " + std::to_string(i) + " " + std::to_string(i % 10) + " " +
             std::to_string(10 + i % 10) + "\n";
  }
  client.send_line(burst.substr(0, burst.size() - 1));
  std::vector<bool> answered(33, false);
  for (int i = 0; i < 32; ++i) {
    const Response response = client.read_response();
    EXPECT_TRUE(response.ok) << response.error;
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, 32u);
    EXPECT_FALSE(answered[response.id]) << "duplicate response id " << response.id;
    answered[response.id] = true;
  }
}

TEST(RoutedE2e, MalformedRequestGetsErrAndConnectionSurvives) {
  ServerHarness harness;
  TestClient client(harness.port());
  client.send_line("teleport 9 1 2");
  Response err = client.read_response();
  EXPECT_FALSE(err.ok);
  EXPECT_NE(err.error.find("invalid-input"), std::string::npos) << err.error;
  EXPECT_NE(err.error.find("teleport"), std::string::npos) << err.error;
  // The connection is still serviceable after a parse error.
  client.send_line("ping 10");
  Response pong = client.read_response();
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, 10u);
  EXPECT_GE(harness.stats().protocol_errors, 1u);
}

TEST(RoutedE2e, TerminatedOverLimitLineGetsOneErrAndTheStreamGoesOn) {
  ServerHarness harness;
  TestClient client(harness.port());
  // One write: the framer drops the whole terminated line and resyncs on
  // its newline, so the ping behind it is still parsed.
  client.send_line(std::string(kMaxLineBytes + 1, 'x') + "\nping 2");
  const Response oversized = client.read_response();
  EXPECT_FALSE(oversized.ok);
  EXPECT_EQ(oversized.error.rfind("invalid-input: oversized frame: line of 4097 bytes", 0), 0u)
      << oversized.error;
  const Response pong = client.read_response();
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, 2u);
  EXPECT_EQ(harness.stats().protocol_errors, 1u);
}

TEST(RoutedE2e, UnterminatedOverLimitLineGetsOneErrThenEof) {
  ServerHarness harness;
  Socket socket = connect_to("127.0.0.1", harness.port());
  // No terminator anywhere: nothing to resync on, so the daemon answers
  // once and hangs up.
  socket.write_all(std::string(kMaxLineBytes + 100, 'x'));
  LineFramer framer;
  std::string line;
  char buf[512];
  while (!framer.next_line(line)) {
    const std::size_t n = socket.read_some(buf, sizeof buf);
    ASSERT_GT(n, 0u) << "connection closed before the err line";
    framer.feed(std::string_view(buf, n));
  }
  const Response response = parse_response(line);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.rfind("invalid-input: oversized frame:", 0), 0u) << response.error;
  EXPECT_NE(response.error.find("without a line terminator"), std::string::npos)
      << response.error;
  EXPECT_FALSE(framer.next_line(line));
  EXPECT_EQ(socket.read_some(buf, sizeof buf), 0u);
  EXPECT_EQ(harness.stats().protocol_errors, 1u);
}

TEST(RoutedE2e, OutOfRangeNodeIsRejectedWithTaxonomy) {
  ServerHarness harness;
  TestClient client(harness.port());
  const std::string big = std::to_string(test_snapshot().num_nodes() + 100);
  client.send_line("route 1 0 " + big);
  Response err = client.read_response();
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.id, 1u);
  EXPECT_NE(err.error.find("invalid-input"), std::string::npos) << err.error;
  EXPECT_NE(err.error.find(big), std::string::npos) << err.error;
}

TEST(RoutedE2e, ExhaustedBudgetSurfacesAsStructuredError) {
  RoutedOptions options;
  options.request_budget.max_edges_scanned = 1;  // any real search exceeds this
  ServerHarness harness(options);
  TestClient client(harness.port());
  client.send_line("route 1 0 " + std::to_string(test_snapshot().num_nodes() - 1));
  Response err = client.read_response();
  EXPECT_FALSE(err.ok);
  EXPECT_NE(err.error.find("budget-exhausted"), std::string::npos) << err.error;
  // The worker survived the exhaustion: the next request is answered.
  client.send_line("ping 2");
  EXPECT_TRUE(client.read_response().ok);
}

TEST(RoutedE2e, ExhaustedBudgetStopsTableRequests) {
  RoutedOptions options;
  options.request_budget.max_edges_scanned = 1;  // the bucket searches settle far more
  ServerHarness harness(options);
  TestClient client(harness.port());
  client.send_line("table 7 0,1 2,3");
  Response err = client.read_response();
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.id, 7u);
  EXPECT_NE(err.error.find("budget-exhausted"), std::string::npos) << err.error;
}

TEST(RoutedE2e, ArmedFaultPointProducesFaultInjectedError) {
  ServerHarness harness;
  TestClient client(harness.port());
  fault::FaultRegistry::instance().arm("routed.request", 1, fault::Action::Throw);
  client.send_line("ping 1");
  Response err = client.read_response();
  fault::FaultRegistry::instance().reset();
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.id, 1u);
  EXPECT_NE(err.error.find("fault-injected"), std::string::npos) << err.error;
  // The fault fires exactly once; the daemon keeps serving afterwards.
  client.send_line("ping 2");
  EXPECT_TRUE(client.read_response().ok);
}

TEST(RoutedE2e, StatsVerbReportsServerWindowAndRegistryViews) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  {
    ServerHarness harness;
    TestClient client(harness.port());
    for (int i = 1; i <= 8; ++i) {
      client.send_line("route " + std::to_string(i) + " 0 1");
      EXPECT_TRUE(client.read_response().ok);
    }
    client.send_line("stats 100");
    const Response stats = client.read_response();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.id, 100u);
    EXPECT_EQ(stats.verb, "stats");
    // Keys are globally sorted: the wire-determinism promise.
    for (std::size_t i = 1; i < stats.fields.size(); ++i) {
      EXPECT_LT(stats.fields[i - 1].first, stats.fields[i].first);
    }
    // server.* totals include the stats request itself (served inline by
    // the reader thread); bookkeeping lands before each response is
    // written, so all eight routes are already counted everywhere.
    EXPECT_EQ(stats.field("server.requests"), "9");
    EXPECT_EQ(stats.field("server.responses_ok"), "9");
    EXPECT_EQ(stats.field("server.responses_error"), "0");
    EXPECT_EQ(stats.field("window.count"), "8");
    EXPECT_EQ(stats.field("window.seconds"), "60");
    // The registry slice agrees with the server's own counters mid-run...
    EXPECT_EQ(stats.field("routed.requests"), "9");
    EXPECT_EQ(stats.field("routed.responses_ok"), "9");
    EXPECT_EQ(stats.field("routed.request_latency_s.count"), "8");
    EXPECT_FALSE(stats.field("routed.request_latency_s.p99").empty());
  }
  // ...and the post-run registry snapshot matches what the mid-run stats
  // response reported (the metrics JSON is written from this snapshot).
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "routed.requests") {
      EXPECT_EQ(counter.value, 9u);
    }
    if (counter.name == "routed.responses_ok") {
      EXPECT_EQ(counter.value, 9u);
    }
    if (counter.name == "routed.responses_error") {
      EXPECT_EQ(counter.value, 0u);
    }
  }
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(false);
}

TEST(RoutedE2e, StatsWithoutMetricsStillServesAlwaysOnViews) {
  // Knobs off: the registry slice reads zero, but server.* and window.*
  // are always-on (plain atomics and the ring, no obs gating).
  ServerHarness harness;
  TestClient client(harness.port());
  client.send_line("route 1 0 1");
  EXPECT_TRUE(client.read_response().ok);
  client.send_line("stats 2");
  const Response stats = client.read_response();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.field("server.requests"), "2");
  EXPECT_EQ(stats.field("window.count"), "1");
}

TEST(RoutedE2e, ArmedFaultWritesExactlyOneSlowlogLine) {
  const std::string path = ::testing::TempDir() + "routed_e2e_slowlog.jsonl";
  std::remove(path.c_str());
  RoutedOptions options;
  options.slowlog_threshold_s = 60.0;  // no healthy request takes a minute
  options.slowlog_path = path;
  {
    ServerHarness harness(options);
    TestClient client(harness.port());
    fault::FaultRegistry::instance().arm("routed.request", 1, fault::Action::Throw);
    client.send_line("route 7 0 1");
    const Response err = client.read_response();
    fault::FaultRegistry::instance().reset();
    EXPECT_FALSE(err.ok);
    // A healthy request under the threshold must NOT be logged.
    client.send_line("route 8 0 1");
    EXPECT_TRUE(client.read_response().ok);
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u) << "slowlog must hold exactly the failed request";
  EXPECT_NE(lines[0].find("\"verb\":\"route\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"id\":7"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("fault-injected"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"edges_scanned\":"), std::string::npos) << lines[0];
  std::remove(path.c_str());
}

TEST(RoutedE2e, RequestSpansCarryWorkCounters) {
  obs::set_trace_enabled(true);
  obs::MetricsRegistry::instance().reset();
  {
    ServerHarness harness;
    TestClient client(harness.port());
    client.send_line("kalt 5 0 1 3");
    EXPECT_TRUE(client.read_response().ok);
  }
  const auto events = obs::MetricsRegistry::instance().trace_events();
  const obs::TraceEvent* span = nullptr;
  for (const auto& event : events) {
    if (event.cat == "mts.request") span = &event;
  }
  ASSERT_NE(span, nullptr) << "request span missing from the trace buffer";
  EXPECT_EQ(span->name, "kalt");
  bool saw_edges = false;
  for (const auto& [key, value] : span->args) {
    if (key == "edges_scanned") {
      saw_edges = true;
      EXPECT_NE(value, "0");  // a real Yen run scans edges
    }
  }
  EXPECT_TRUE(saw_edges);
  obs::MetricsRegistry::instance().reset();
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
}

TEST(RoutedE2e, SpanAndSlowlogLineCarryTheSameEightWorkCounts) {
  const std::string path = (test::unique_temp_dir() / "slowlog.jsonl").string();
  RoutedOptions options;
  options.slowlog_threshold_s = 1e-9;  // every request is logged
  options.slowlog_path = path;
  obs::set_trace_enabled(true);
  obs::MetricsRegistry::instance().reset();
  {
    ServerHarness harness(options);
    TestClient client(harness.port());
    client.send_line("kalt 5 0 1 3");
    EXPECT_TRUE(client.read_response().ok);
  }
  std::vector<std::pair<std::string, std::string>> span_args;
  for (const auto& event : obs::MetricsRegistry::instance().trace_events()) {
    if (event.cat == "mts.request") span_args = event.args;
  }
  obs::MetricsRegistry::instance().reset();
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);

  const std::vector<std::string> counters = {
      "dijkstra_runs", "nodes_settled", "edges_scanned", "spur_searches",
      "spurs_pruned",  "oracle_calls",  "ch_queries",    "ch_nodes_settled"};
  ASSERT_EQ(span_args.size(), counters.size() + 1) << "span missing or not id + 8 counters";
  EXPECT_EQ(span_args[0], std::make_pair(std::string("id"), std::string("5")));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << "slow-query log is empty";
  std::size_t previous = 0;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(span_args[i + 1].first, counters[i]);
    // Same value, same order in the slow-query line.
    const std::string field = "\"" + counters[i] + "\":" + span_args[i + 1].second;
    const std::size_t at = line.find(field);
    ASSERT_NE(at, std::string::npos) << field << " not in " << line;
    EXPECT_NE(std::string(",}").find(line[at + field.size()]), std::string::npos) << line;
    EXPECT_GT(at, previous) << counters[i] << " out of order in " << line;
    previous = at;
  }
}

TEST(RoutedE2e, RequestOnceRoundTripsAndWindowStaysSane) {
  ServerHarness harness;
  LoadgenOptions options;
  options.requests = 60;
  options.connections = 2;
  const LoadReport report = run_loadgen("127.0.0.1", harness.port(), options);
  EXPECT_EQ(report.dropped, 0u);
  Request stats_request;
  stats_request.verb = Verb::Stats;
  stats_request.id = 1000;
  const Response stats = request_once("127.0.0.1", harness.port(), stats_request);
  ASSERT_TRUE(stats.ok);
  // 60 replayed routes plus loadgen's own `graph` size probe; the inline
  // stats request itself never touches the window.
  EXPECT_EQ(stats.field("window.count"), "61");
  // Windowed percentiles are within a log bucket of the true latency
  // distribution, so p99 can never undercut p50 or exceed the max bound.
  const double p50 = std::stod(stats.field("window.p50_s"));
  const double p99 = std::stod(stats.field("window.p99_s"));
  EXPECT_GE(p99, p50);
  EXPECT_GE(p50, 0.0);
}

TEST(RoutedE2e, LoadgenCompletesWithZeroDrops) {
  ServerHarness harness;
  LoadgenOptions options;
  options.requests = 400;
  options.connections = 3;
  options.window = 8;
  options.mix = Mix::Mixed;
  options.attack_rank = 2;
  const LoadReport report = run_loadgen("127.0.0.1", harness.port(), options);
  EXPECT_EQ(report.sent, 400u);
  EXPECT_EQ(report.completed, 400u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.failed_connections, 0u);
  EXPECT_EQ(report.ok + report.errors, 400u);
  // A synthetic stream over a connected city should mostly succeed.
  EXPECT_GT(report.ok, 0u);
  const RoutedStats stats = harness.stats();
  EXPECT_GE(stats.requests, 400u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(RoutedE2e, DrainAnswersEveryParsedRequest) {
  RoutedServer server(test_snapshot(), [] {
    RoutedOptions options;
    options.threads = 2;
    return options;
  }());
  server.start();
  std::thread serve_thread([&server] { server.serve(); });

  TestClient client(server.port());
  // Park a burst, then stop the server before reading anything: the drain
  // contract says every parsed request is still answered.
  std::string burst;
  for (int i = 1; i <= 16; ++i) burst += "route " + std::to_string(i) + " 0 1\n";
  client.send_line(burst.substr(0, burst.size() - 1));
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(client.read_response().ok);
  }
  server.request_stop();
  serve_thread.join();
  const RoutedStats stats = server.stats();
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_EQ(stats.responses_ok, 16u);
  // After the drain, new connections are refused (listener closed) --
  // connect either fails outright or is reset on first use.
  EXPECT_THROW(
      {
        Socket late = connect_to("127.0.0.1", server.port());
        late.write_all("ping 99\n");
        char buf[64];
        require(late.read_some(buf, sizeof buf) > 0, "connection refused or reset");
      },
      Error);
}

TEST(RoutedE2e, ExternalStopFlagStopsServe) {
  RoutedServer server(test_snapshot(), [] {
    RoutedOptions options;
    options.threads = 1;
    return options;
  }());
  server.start();
  std::atomic<bool> stop{false};
  std::thread serve_thread([&] { server.serve(&stop); });
  TestClient client(server.port());
  client.send_line("ping 1");
  EXPECT_TRUE(client.read_response().ok);
  stop.store(true);
  serve_thread.join();
  EXPECT_EQ(server.stats().responses_ok, 1u);
}

}  // namespace
}  // namespace mts::net
