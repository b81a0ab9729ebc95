#include "net/server.hpp"

#include <exception>
#include <string_view>
#include <utility>

#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/timer.hpp"
#include "net/engine.hpp"
#include "net/framing.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"

namespace mts::net {

namespace {

obs::CounterId requests_counter() {
  static const obs::CounterId id = obs::MetricsRegistry::instance().counter("routed.requests");
  return id;
}

obs::CounterId ok_counter() {
  static const obs::CounterId id = obs::MetricsRegistry::instance().counter("routed.responses_ok");
  return id;
}

obs::CounterId error_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("routed.responses_error");
  return id;
}

obs::CounterId connections_counter() {
  static const obs::CounterId id = obs::MetricsRegistry::instance().counter("routed.connections");
  return id;
}

obs::CounterId protocol_errors_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("routed.protocol_errors");
  return id;
}

obs::HistogramId latency_histogram() {
  static const obs::HistogramId id =
      obs::MetricsRegistry::instance().histogram("routed.request_latency_s");
  return id;
}

// The overload counters below are registered lazily inside their accessor,
// so a run where the machinery never fires keeps them out of metrics
// snapshots entirely (bench_gate byte-identity, like fault.injected).

obs::CounterId shed_counter() {
  static const obs::CounterId id = obs::MetricsRegistry::instance().counter("routed.shed");
  return id;
}

obs::CounterId deadline_exceeded_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("routed.deadline_exceeded");
  return id;
}

obs::CounterId slow_client_counter() {
  static const obs::CounterId id =
      obs::MetricsRegistry::instance().counter("routed.slow_client_disconnects");
  return id;
}

constexpr std::string_view kDeadlineTaxonomy = "deadline-exceeded";

/// Rolling latency window served by the `stats` verb: the last 60 s at 1 s
/// resolution (obs/window.hpp has the memory/accuracy trade-off).
constexpr double kWindowSlotSeconds = 1.0;
constexpr std::size_t kWindowSlots = 60;

bool is_deadline_error(const Response& response) {
  return !response.ok &&
         std::string_view(response.error).substr(0, kDeadlineTaxonomy.size()) ==
             kDeadlineTaxonomy;
}

}  // namespace

RoutedServer::RoutedServer(const Snapshot& snapshot, RoutedOptions options)
    : snapshot_(&snapshot),
      options_(std::move(options)),
      window_(kWindowSlotSeconds, kWindowSlots) {
  if (options_.slowlog_threshold_s > 0.0) {
    slowlog_ = std::make_unique<obs::SlowQueryLog>(options_.slowlog_path);
  }
}

RoutedServer::~RoutedServer() {
  if (queue_ && !drained_) {
    request_stop();
    serve(nullptr);  // listener already stopped accepting; runs the drain
  }
}

void RoutedServer::start() {
  require(!queue_, "RoutedServer::start called twice");
  const std::size_t workers = options_.threads != 0 ? options_.threads : mts::num_threads();
  listener_ = Listener::bind(options_.host, options_.port);
  engines_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    engines_.push_back(std::make_unique<QueryEngine>(*snapshot_, options_.request_budget));
  }
  // The TaskQueue bound backstops the admission policy: racing readers can
  // overshoot the atomic depth check by at most one each, and the bound
  // turns that overshoot into a definite QueueFull answer instead of
  // backlog growth.
  queue_ = std::make_unique<TaskQueue>(workers, options_.max_queue);
}

std::uint16_t RoutedServer::port() const {
  require(listener_.valid(), "RoutedServer::port before start()");
  return listener_.port();
}

void RoutedServer::serve(const std::atomic<bool>* external_stop) {
  require(queue_ != nullptr, "RoutedServer::serve before start()");
  while (!stop_.load() && !(external_stop != nullptr && external_stop->load())) {
    std::optional<Socket> accepted = listener_.accept_for(200);
    if (!accepted) continue;
    auto connection = std::make_shared<Connection>();
    connection->socket = std::move(*accepted);
    connection->writer = std::thread([this, connection] { writer_loop(connection); });
    connections_count_.fetch_add(1);
    obs::add(connections_counter());
    MutexLock lock(connections_mutex_);
    connections_.push_back(connection);
    readers_.emplace_back([this, connection] { reader_loop(connection); });
  }

  // Drain: stop accepting, wake every reader, let each wait for its own
  // pending responses, then retire the queue.
  stop_.store(true);
  listener_.close();
  std::vector<std::thread> readers;
  {
    MutexLock lock(connections_mutex_);
    for (const auto& connection : connections_) {
      // The connection mutex orders this against the reader's own close():
      // a reader that already hit EOF may be closing the fd right now.
      MutexLock connection_lock(connection->mutex);
      connection->socket.shutdown_read();
    }
    readers.swap(readers_);
  }
  for (std::thread& reader : readers) reader.join();
  queue_->close();
  {
    MutexLock lock(connections_mutex_);
    connections_.clear();
  }
  drained_ = true;
}

void RoutedServer::reader_loop(const std::shared_ptr<Connection>& connection) {
  LineFramer framer(kMaxLineBytes);
  std::vector<char> buffer(4096);
  std::string line;
  bool readable = true;
  while (readable) {
    std::size_t received = 0;
    try {
      received = connection->socket.read_some(buffer.data(), buffer.size());
    } catch (const std::exception&) {
      break;  // hard socket error: treat as EOF and drain what we owe
    }
    if (received == 0) break;
    try {
      framer.feed(std::string_view(buffer.data(), received));
    } catch (const InvalidInput& oversized) {
      // Unterminated over-limit line: there is no line boundary left to
      // resync on, so answer once and hang up.
      protocol_errors_.fetch_add(1);
      obs::add(protocol_errors_counter());
      Response response;
      response.error = std::string("invalid-input: ") + oversized.what();
      deliver_response(*connection, serialize_response(response) + "\n", false);
      readable = false;
    }
    for (;;) {
      try {
        if (!framer.next_line(line)) break;
      } catch (const InvalidInput& oversized) {
        // Oversized but terminated: the framer already advanced past it.
        protocol_errors_.fetch_add(1);
        obs::add(protocol_errors_counter());
        Response response;
        response.error = std::string("invalid-input: ") + oversized.what();
        deliver_response(*connection, serialize_response(response) + "\n", false);
        continue;
      }
      if (line.empty()) continue;  // blank lines are keep-alive no-ops
      handle_line(connection, line);
    }
  }
  // EOF (or shutdown_read): every parsed request still owes a response,
  // and every queued response must reach the wire (unless the connection
  // was declared dead, which discards the backlog by contract).
  {
    MutexLock lock(connection->mutex);
    while (connection->pending != 0 ||
           (!connection->write_queue.empty() && !connection->dead)) {
      connection->drained.wait(lock);
    }
    connection->writer_exit = true;
  }
  connection->writer_wake.notify_all();
  if (connection->writer.joinable()) connection->writer.join();
  // Close only after the writer is joined — no thread can still be inside
  // a syscall on this fd.  Under the mutex: races the drain's shutdown_read.
  MutexLock lock(connection->mutex);
  connection->socket.close();
}

void RoutedServer::writer_loop(const std::shared_ptr<Connection>& connection) {
  for (;;) {
    std::string wire_line;
    {
      MutexLock lock(connection->mutex);
      while (connection->write_queue.empty() && !connection->writer_exit &&
             !connection->dead) {
        connection->writer_wake.wait(lock);
      }
      // dead: the backlog was discarded; exit + empty queue: fully flushed.
      if (connection->dead || connection->write_queue.empty()) return;
      wire_line = std::move(connection->write_queue.front());
      connection->write_queue.pop_front();
      connection->write_queue_bytes -= wire_line.size();
    }
    bool delivered = true;
    switch (MTS_FAULT_ACTION("net.write")) {
      case fault::Action::Stall:
        // Emulates a peer that stops draining: the response still goes out
        // after the stall, but everything queued behind it backs up.
        fault::stall();
        break;
      case fault::Action::None:
        break;
      default:
        delivered = false;  // throw/nan/limit: emulate a peer gone mid-write
        break;
    }
    if (delivered) {
      try {
        delivered = connection->socket.write_all_for(
            wire_line, static_cast<int>(options_.write_timeout_s * 1000.0));
      } catch (const std::exception&) {
        delivered = false;  // peer hung up without reading its answers
      }
    }
    if (!delivered) {
      {
        MutexLock lock(connection->mutex);
        if (!connection->dead) evict_slow_client(*connection);
        connection->drained.notify_all();
      }
      return;
    }
    MutexLock lock(connection->mutex);
    if (connection->write_queue.empty()) connection->drained.notify_all();
  }
}

void RoutedServer::deliver_response(Connection& connection, std::string wire_line,
                                    bool finishes_pending) {
  bool notify_writer = false;
  bool evicted = false;
  {
    MutexLock lock(connection.mutex);
    if (!connection.dead) {
      if (connection.write_queue_bytes + wire_line.size() >
          options_.max_write_queue_bytes) {
        // The byte cap is the always-on memory backstop behind
        // MTS_WRITE_TIMEOUT_MS: a peer this far behind gets evicted even
        // with blocking writes configured.
        evict_slow_client(connection);
        evicted = true;
      } else {
        connection.write_queue_bytes += wire_line.size();
        connection.write_queue.push_back(std::move(wire_line));
        notify_writer = true;
      }
    }
    if (finishes_pending && --connection.pending == 0) connection.drained.notify_all();
    if (evicted) connection.drained.notify_all();
  }
  if (notify_writer) connection.writer_wake.notify_one();
  if (evicted) {
    connection.writer_wake.notify_all();  // writer must observe `dead` and exit
  }
}

void RoutedServer::evict_slow_client(Connection& connection) {
  connection.dead = true;
  connection.write_queue.clear();
  connection.write_queue_bytes = 0;
  // Count before the shutdown: a peer that observes its EOF and then asks
  // another connection for stats must already see this disconnect.
  slow_client_disconnects_.fetch_add(1);
  obs::add(slow_client_counter());
  // Both directions: our reader wakes with EOF, the peer sees the
  // connection end.  The fd itself stays open until the writer is joined.
  connection.socket.shutdown_both();
}

void RoutedServer::handle_line(const std::shared_ptr<Connection>& connection,
                               const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const InvalidInput& error) {
    protocol_errors_.fetch_add(1);
    obs::add(protocol_errors_counter());
    Response response;
    response.error = std::string("invalid-input: ") + error.what();
    deliver_response(*connection, serialize_response(response) + "\n", false);
    return;
  }

  requests_.fetch_add(1);
  obs::add(requests_counter());

  if (request.verb == Verb::Stats) {
    // Served inline by the reader thread, never queued: stats must answer
    // even when every worker is pinned mid-burst.  The response touches
    // only atomics, the window mutex, and a registry snapshot.
    responses_ok_.fetch_add(1);
    obs::add(ok_counter());
    deliver_response(*connection, serialize_response(build_stats_response(request.id)) + "\n",
                     false);
    return;
  }

  // Admission control (DESIGN.md §15): decide from the instantaneous
  // depth before touching the queue or the pending count, so a shed
  // request costs two atomic loads and one queued response.
  if (should_shed(request.verb, queue_depth_.load(std::memory_order_relaxed),
                  options_.max_queue)) {
    shed_request(*connection, request, "queue at capacity", false);
    return;
  }
  if (options_.max_inflight != 0) {
    bool over_inflight = false;
    {
      MutexLock lock(connection->mutex);
      if (connection->pending >= options_.max_inflight) {
        over_inflight = true;
      } else {
        ++connection->pending;
      }
    }
    if (over_inflight) {
      shed_request(*connection, request, "connection inflight cap", false);
      return;
    }
  } else {
    MutexLock lock(connection->mutex);
    ++connection->pending;
  }

  const double start_s = clock_.seconds();
  // Effective deadline: the request's own token wins over the server
  // default; measured from parse so queue wait counts against it.
  const double deadline_window_s =
      request.deadline_ms != 0 ? request.deadline_ms / 1000.0 : options_.deadline_s;
  const double deadline_at_s = deadline_window_s > 0.0 ? start_s + deadline_window_s : 0.0;
  const double span_start_s =
      obs::trace_enabled() ? obs::MetricsRegistry::instance().seconds_since_epoch() : 0.0;
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  const TaskQueue::SubmitResult submitted = queue_->try_submit(
      [this, connection, request, start_s, deadline_at_s, span_start_s](std::size_t worker) {
        // One meter per request: a copy of --budget with the deadline
        // armed, charged by every engine the request runs.
        WorkBudget budget = options_.request_budget;
        if (deadline_at_s > 0.0) budget.arm_deadline(&clock_, deadline_at_s);
        Response response;
        if (deadline_at_s > 0.0 && clock_.seconds() >= deadline_at_s) {
          // Expired while queued: answer without burning a worker on work
          // whose result nobody is waiting for anymore.
          response.id = request.id;
          response.error = std::string(kDeadlineTaxonomy) + ": expired while queued";
        } else {
          response = engines_[worker]->handle(request, budget);
        }
        // Latency covers parse-to-handled, not the response write.  All
        // bookkeeping lands BEFORE the response bytes leave, so a client
        // that reads its answer and then asks for stats sees this request
        // already counted in every view (totals, window, slowlog, span).
        const double latency_s = clock_.seconds() - start_s;
        if (response.ok) {
          responses_ok_.fetch_add(1);
          obs::add(ok_counter());
        } else {
          responses_error_.fetch_add(1);
          obs::add(error_counter());
          if (is_deadline_error(response)) {
            deadline_exceeded_.fetch_add(1);
            obs::add(deadline_exceeded_counter());
          }
        }
        window_.record(clock_.seconds(), latency_s);
        obs::observe(latency_histogram(), reported_seconds(latency_s));
        record_outcome(request, response, budget, latency_s, span_start_s);
        queue_depth_.fetch_sub(1, std::memory_order_relaxed);
        deliver_response(*connection, serialize_response(response) + "\n", true);
      });
  if (submitted == TaskQueue::SubmitResult::Accepted) return;
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  if (submitted == TaskQueue::SubmitResult::QueueFull) {
    // Racing readers overshot the depth check; the queue bound is the
    // backstop and this request sheds like any other.
    shed_request(*connection, request, "queue at capacity", true);
    return;
  }
  // Queue already closed (shutdown race): answer inline so the request
  // is still never dropped.
  Response response;
  response.id = request.id;
  response.error = "error: server shutting down";
  responses_error_.fetch_add(1);
  obs::add(error_counter());
  deliver_response(*connection, serialize_response(response) + "\n", true);
}

bool RoutedServer::should_shed(Verb verb, std::size_t depth, std::size_t max_queue) {
  if (max_queue == 0) return false;
  const bool expensive = verb == Verb::Attack || verb == Verb::Table;
  const bool search = expensive || verb == Verb::Route || verb == Verb::Kalt;
  if (!search) return false;  // ping/graph/stats: cheap control plane
  if (depth >= max_queue) return true;            // full: shed every search verb
  return expensive && depth * 2 >= max_queue;     // half full: shed expensive first
}

void RoutedServer::shed_request(Connection& connection, const Request& request,
                                const char* reason, bool finishes_pending) {
  shed_.fetch_add(1);
  obs::add(shed_counter());
  responses_error_.fetch_add(1);
  obs::add(error_counter());
  Response response;
  response.id = request.id;
  response.error = std::string("overloaded: ") + reason;
  // Sheds are always outliers worth keeping: record_outcome logs any
  // error taxonomy to the slowlog regardless of the latency threshold.
  const double span_start_s =
      obs::trace_enabled() ? obs::MetricsRegistry::instance().seconds_since_epoch() : 0.0;
  record_outcome(request, response, WorkBudget{}, 0.0, span_start_s);
  deliver_response(connection, serialize_response(response) + "\n", finishes_pending);
}

void RoutedServer::record_outcome(const Request& request, const Response& response,
                                  const WorkBudget& work, double latency_s,
                                  double span_start_s) {
  // Threshold decisions use the raw latency so MTS_SLOWLOG keeps working
  // under MTS_TIMING=0; errors are always outliers worth keeping.
  if (slowlog_ && (latency_s >= options_.slowlog_threshold_s || !response.ok)) {
    obs::SlowLogEntry entry;
    entry.verb = to_string(request.verb);
    entry.id = request.id;
    entry.latency_s = reported_seconds(latency_s);
    entry.fields.emplace_back("dijkstra_runs", work.dijkstra_runs);
    entry.fields.emplace_back("nodes_settled", work.nodes_settled);
    entry.fields.emplace_back("edges_scanned", work.edges_scanned);
    entry.fields.emplace_back("spur_searches", work.spur_searches);
    entry.fields.emplace_back("spurs_pruned", work.spurs_pruned);
    entry.fields.emplace_back("oracle_calls", work.oracle_calls);
    entry.fields.emplace_back("ch_queries", work.ch_queries);
    entry.fields.emplace_back("ch_nodes_settled", work.ch_nodes_settled);
    entry.error = response.error;
    slowlog_->append(entry);
  }
  if (obs::trace_enabled()) {
    obs::TraceEvent event;
    event.name = to_string(request.verb);
    event.cat = "mts.request";
    event.ts_s = span_start_s;
    event.dur_s = reported_seconds(latency_s);
    event.args.emplace_back("id", std::to_string(request.id));
    event.args.emplace_back("edges_scanned", std::to_string(work.edges_scanned));
    event.args.emplace_back("nodes_settled", std::to_string(work.nodes_settled));
    event.args.emplace_back("spur_searches", std::to_string(work.spur_searches));
    event.args.emplace_back("spurs_pruned", std::to_string(work.spurs_pruned));
    event.args.emplace_back("oracle_calls", std::to_string(work.oracle_calls));
    event.args.emplace_back("ch_queries", std::to_string(work.ch_queries));
    event.args.emplace_back("ch_nodes_settled", std::to_string(work.ch_nodes_settled));
    if (!response.ok) event.args.emplace_back("error", response.error);
    obs::MetricsRegistry::instance().record_trace_event(std::move(event));
  }
}

obs::WindowSnapshot RoutedServer::window_snapshot() const {
  return window_.snapshot(clock_.seconds());
}

Response RoutedServer::build_stats_response(std::uint64_t id) const {
  Response response;
  response.id = id;
  response.ok = true;
  response.verb = "stats";
  const RoutedStats totals = stats();
  response.fields.emplace_back("server.connections", std::to_string(totals.connections));
  response.fields.emplace_back("server.deadline_exceeded",
                               std::to_string(totals.deadline_exceeded));
  response.fields.emplace_back("server.protocol_errors", std::to_string(totals.protocol_errors));
  response.fields.emplace_back("server.requests", std::to_string(totals.requests));
  response.fields.emplace_back("server.responses_error", std::to_string(totals.responses_error));
  response.fields.emplace_back("server.responses_ok", std::to_string(totals.responses_ok));
  response.fields.emplace_back("server.shed", std::to_string(totals.shed));
  response.fields.emplace_back("server.slow_client_disconnects",
                               std::to_string(totals.slow_client_disconnects));
  // Gauge, not a counter: the registry has no gauge type, so the stats
  // verb reports the instantaneous depth directly (always on, like the
  // server.* totals).
  response.fields.emplace_back("routed.queue_depth", std::to_string(totals.queue_depth));
  const obs::WindowSnapshot window = window_snapshot();
  response.fields.emplace_back("window.count", std::to_string(window.count));
  response.fields.emplace_back("window.p50_s", format_wire_double(reported_seconds(window.p50_s)));
  response.fields.emplace_back("window.p99_s", format_wire_double(reported_seconds(window.p99_s)));
  response.fields.emplace_back("window.qps", format_wire_double(window.qps));
  response.fields.emplace_back("window.seconds", format_wire_double(window.seconds));
  append_registry_stats(response);  // merges the registry slice, then sorts every key
  return response;
}

RoutedStats RoutedServer::stats() const {
  RoutedStats stats;
  stats.connections = connections_count_.load();
  stats.requests = requests_.load();
  stats.responses_ok = responses_ok_.load();
  stats.responses_error = responses_error_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.shed = shed_.load();
  stats.deadline_exceeded = deadline_exceeded_.load();
  stats.slow_client_disconnects = slow_client_disconnects_.load();
  stats.queue_depth = queue_depth_.load();
  return stats;
}

}  // namespace mts::net
