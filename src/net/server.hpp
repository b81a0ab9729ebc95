// The routed daemon: one immutable Snapshot, N queue workers, a line
// protocol over loopback TCP.
//
// Process shape (DESIGN.md §12): the accept loop and one reader thread per
// connection parse request lines and enqueue them on a core::TaskQueue;
// each queue worker owns a private QueryEngine, so all mutable search
// state is per-worker and the Snapshot is the only shared data (read-only
// by contract).  Responses carry the request id, so pipelined requests may
// complete out of order.  Workers never touch the socket: they append the
// serialized response to a bounded per-connection write queue drained by a
// dedicated writer thread, so a client that stops reading can only stall
// its own writer, never a worker (DESIGN.md §15).
//
// Overload is a first-class input (DESIGN.md §15): admission control sheds
// requests with `err <id> overloaded` when the global queue or the
// connection's inflight count is at its cap (expensive verbs first),
// per-request deadlines — queue wait included — answer `err <id>
// deadline-exceeded`, and a client that cannot drain its responses within
// the write timeout (or whose unsent backlog exceeds the byte cap) is
// disconnected and counted.  Every knob defaults off, and with all knobs
// off the wire behavior is byte-identical to the pre-overload server.
//
// Shutdown is a drain, not an abort: request_stop() (or the external stop
// flag flipping) closes the listener, half-closes every connection's read
// side so its reader wakes with EOF, waits for every already-parsed
// request to be answered and written (or its connection declared dead),
// then joins the queue.  In-flight requests are never dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/budget.hpp"
#include "core/mutex.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "net/protocol.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"
#include "obs/slowlog.hpp"
#include "obs/window.hpp"

namespace mts::net {

class QueryEngine;

struct RoutedOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the choice via port()
  std::size_t threads = 0;  // queue workers; 0 = mts::num_threads()
  /// Per-request work caps, copied into every request (all-zero =
  /// unlimited).  Exhaustion produces an `err ... budget-exhausted:`
  /// response, never a dead worker.
  WorkBudget request_budget;
  /// Slow-query log: requests at or over the threshold — or failing with
  /// any error taxonomy — append one JSONL line to `slowlog_path`.
  /// 0 (the default) disables the log entirely; the CLI wires this to
  /// MTS_SLOWLOG (milliseconds).
  double slowlog_threshold_s = 0.0;
  std::string slowlog_path = "routed_slowlog.jsonl";
  /// Overload knobs (DESIGN.md §15); the CLI wires them to MTS_MAX_INFLIGHT,
  /// MTS_MAX_QUEUE, MTS_DEADLINE_MS, MTS_WRITE_TIMEOUT_MS.  All default
  /// off, preserving pre-overload behavior byte for byte.
  std::size_t max_inflight = 0;  ///< per-connection parsed-unanswered cap; 0 = unbounded
  std::size_t max_queue = 0;     ///< queued+executing cap across connections; 0 = unbounded
  double deadline_s = 0.0;       ///< default per-request deadline; 0 = none
  double write_timeout_s = 0.0;  ///< per-response send timeout; 0 = blocking writes
  /// Always-on memory backstop: one connection may hold at most this many
  /// bytes of queued-but-unsent responses before it is disconnected as a
  /// slow client.  Generous by default — a well-behaved pipelining client
  /// never comes close — but never unbounded.
  std::size_t max_write_queue_bytes = std::size_t{4} << 20;
};

struct RoutedStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t shed = 0;                     ///< admission-control rejections
  std::uint64_t deadline_exceeded = 0;        ///< expired while queued or mid-search
  std::uint64_t slow_client_disconnects = 0;  ///< evicted for not draining responses
  std::uint64_t queue_depth = 0;              ///< gauge: queued+executing right now
};

class RoutedServer {
 public:
  /// `snapshot` must outlive the server.
  RoutedServer(const Snapshot& snapshot, RoutedOptions options);

  /// Drains and joins if serve() was not allowed to finish its own drain.
  ~RoutedServer();

  RoutedServer(const RoutedServer&) = delete;
  RoutedServer& operator=(const RoutedServer&) = delete;

  /// Binds the listener and spawns the queue workers.  After start()
  /// returns, port() is the bound port and clients may connect.
  void start();

  [[nodiscard]] std::uint16_t port() const;

  /// Runs the accept loop until request_stop() is called or the optional
  /// external flag (e.g. a signal handler's) becomes true, then drains:
  /// every request parsed before the drain began is answered.  Returns
  /// after the drain completes.
  void serve(const std::atomic<bool>* external_stop = nullptr);

  /// Thread-safe, idempotent stop signal; serve() notices within its
  /// accept timeout (200 ms).
  void request_stop() { stop_.store(true); }

  [[nodiscard]] RoutedStats stats() const;

  /// Rolling-window latency view at this instant (the window.* slice of
  /// the stats verb).  Thread-safe.
  [[nodiscard]] obs::WindowSnapshot window_snapshot() const;

  /// The full `ok <id> stats ...` response: always-on server.* totals,
  /// window.* rolling percentiles, and the registry's routed./dijkstra./
  /// yen. slice, one global sorted key order.  Served inline by the reader
  /// thread (never queued), so it answers even when every worker is busy.
  [[nodiscard]] Response build_stats_response(std::uint64_t id) const;

  /// Admission decision for one request given the instantaneous queue
  /// depth (queued + executing): with a cap, expensive verbs (attack,
  /// table) shed at half the cap, all search verbs (route, kalt too) at
  /// the cap; control verbs (ping, graph, stats) always pass the policy
  /// (the TaskQueue's own bound still backstops them).  Pure — exposed for
  /// unit tests; `max_queue == 0` never sheds.
  [[nodiscard]] static bool should_shed(Verb verb, std::size_t depth, std::size_t max_queue);

 private:
  struct Connection {
    Socket socket;
    Mutex mutex;  // guards every field below; only the writer thread sends
    CondVar writer_wake;  // writer waits: queue non-empty || exit || dead
    CondVar drained;      // reader waits: pending == 0 && (queue empty || dead)
    std::deque<std::string> write_queue MTS_GUARDED_BY(mutex);  // serialized responses
    std::size_t write_queue_bytes MTS_GUARDED_BY(mutex) = 0;
    std::uint64_t pending MTS_GUARDED_BY(mutex) = 0;  // parsed, not yet answered
    bool writer_exit MTS_GUARDED_BY(mutex) = false;  // reader: flush then return
    bool dead MTS_GUARDED_BY(mutex) = false;  // slow client evicted; drop writes
    std::thread writer;  // started at accept, joined by the reader's teardown
  };

  void reader_loop(const std::shared_ptr<Connection>& connection);
  void writer_loop(const std::shared_ptr<Connection>& connection);
  void handle_line(const std::shared_ptr<Connection>& connection, const std::string& line);
  /// Appends one serialized response to the connection's write queue (or
  /// evicts the connection when the byte cap would be exceeded) and, when
  /// `finishes_pending`, retires one pending request.  The only producer
  /// side of the writer protocol.
  void deliver_response(Connection& connection, std::string wire_line, bool finishes_pending);
  /// Sheds one admitted-then-rejected request with `err <id> overloaded`.
  void shed_request(Connection& connection, const Request& request, const char* reason,
                    bool finishes_pending);
  /// Marks a connection dead: discards its unsent backlog and shuts the
  /// socket down both ways so the reader (EOF) and the peer both notice.
  void evict_slow_client(Connection& connection) MTS_REQUIRES(connection.mutex);
  /// Post-response bookkeeping for one request: slow-query log append and
  /// request-span trace event, both no-ops when their knob is off.  The
  /// work fields of both come from the request's budget, `work`.
  void record_outcome(const Request& request, const Response& response,
                      const WorkBudget& work, double latency_s, double span_start_s);

  const Snapshot* snapshot_;
  RoutedOptions options_;
  /// Time origin for the rolling window and latency measurement: one
  /// steady clock for the server's whole life (raw seconds, internal
  /// decisions only; durations pass reported_seconds() before output).
  Stopwatch clock_;
  obs::WindowedHistogram window_;
  std::unique_ptr<obs::SlowQueryLog> slowlog_;  // null when disabled
  Listener listener_;
  std::unique_ptr<TaskQueue> queue_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;  // one per queue worker
  std::atomic<bool> stop_{false};
  bool drained_ = false;  // serve()/dtor only (single-threaded use)

  Mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_ MTS_GUARDED_BY(connections_mutex_);
  std::vector<std::thread> readers_ MTS_GUARDED_BY(connections_mutex_);

  std::atomic<std::uint64_t> connections_count_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_ok_{0};
  std::atomic<std::uint64_t> responses_error_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> slow_client_disconnects_{0};
  /// Requests submitted to the queue and not yet finished (queued +
  /// executing); the admission policy's load signal and the
  /// routed.queue_depth gauge.
  std::atomic<std::uint64_t> queue_depth_{0};
};

}  // namespace mts::net
