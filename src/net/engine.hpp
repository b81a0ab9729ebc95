// Per-worker query engine: the mutable half of the routed process shape.
//
// A QueryEngine owns everything one worker thread needs to answer a
// request — reusable epoch-stamped search workspaces and per-request
// work-budget copies — while all graph bytes stay in the shared immutable
// net::Snapshot.  One engine per worker, never shared: handle() may be
// called from exactly one thread at a time.
//
// Every request failure is converted into a structured `err` response
// carrying the PR 5 quarantine taxonomy ("budget-exhausted: ...",
// "fault-injected: ...", "invalid-input: ..."), so a request can never
// crash the daemon or poison another worker.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/budget.hpp"
#include "core/request_trace.hpp"
#include "graph/ch_table.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/search_space.hpp"
#include "graph/yen.hpp"
#include "net/protocol.hpp"
#include "net/snapshot.hpp"

namespace mts::net {

class QueryEngine {
 public:
  /// `snapshot` must outlive the engine; `budget_template` is copied into
  /// every request (all-zero caps = unlimited).
  QueryEngine(const Snapshot& snapshot, const WorkBudget& budget_template);

  /// Answers one request.  Never throws: failures become `err` responses
  /// tagged with the error taxonomy.  The `routed.request` fault point
  /// fires here (once per request hit) when armed.  When `trace` is
  /// non-null it accumulates this request's work counters — including the
  /// work performed before a failure — for spans and the slow-query log.
  /// A non-null `deadline_clock` arms a wall-clock deadline at absolute
  /// instant `deadline_s` on that clock (the server's lifetime Stopwatch):
  /// the request's budget copy then answers `err ... deadline-exceeded:`
  /// once the work runs past it (DESIGN.md §15).
  Response handle(const Request& request, RequestTrace* trace = nullptr,
                  const Stopwatch* deadline_clock = nullptr, double deadline_s = 0.0);

 private:
  Response dispatch(const Request& request, WorkBudget& budget, RequestTrace* trace);
  Response route(const Request& request, WorkBudget& budget, RequestTrace* trace);
  Response alternatives(const Request& request, WorkBudget& budget, RequestTrace* trace);
  Response table(const Request& request, WorkBudget& budget, RequestTrace* trace);
  Response attack(const Request& request, WorkBudget& budget, RequestTrace* trace);
  void check_endpoints(const Request& request) const;
  /// The snapshot's CH for the request's weight kind.
  [[nodiscard]] const ContractionHierarchy& ch_for(const Request& request) const;
  /// The request's source->target shortest path off the CH, its length
  /// re-summed in forward edge order (nullopt when unreachable).
  std::optional<Path> ch_path(const Request& request, WorkBudget& budget, RequestTrace* trace);
  /// Yen options for a kalt/attack ranking.  With a `first` path they
  /// carry it plus PHAST distances-to-target as the spur searches' goal
  /// bounds; `first` must outlive the yen_ksp call.
  YenOptions ranking_options(const Request& request, WorkBudget& budget, RequestTrace* trace,
                             const std::optional<Path>& first);
  /// Per-engine many-to-many machinery for a weight kind, created on the
  /// first table request (buckets are sized to the graph; most engines
  /// never see a table).
  ChTableQuery& table_query_for(const Request& request);

  const Snapshot* snapshot_;
  WorkBudget budget_template_;
  ChSearchSpace ch_workspace_;     // CH query/PHAST scratch, one per engine
  SearchSpace reverse_bounds_;     // kalt/attack: PHAST distances-to-target
  std::unique_ptr<ChTableQuery> time_table_;
  std::unique_ptr<ChTableQuery> length_table_;
};

/// Appends the registry's `routed.*` / `dijkstra.*` / `yen.*` / `ch.*`
/// slice to a stats response: every matching counter as `name=value` and every
/// matching histogram as `name.count` / `name.p50` / `name.p99` (quantile
/// estimates over the log buckets).  Key order follows the registry's
/// name-sorted snapshot, so responses are deterministic; values are all
/// zero until MTS_METRICS/MTS_TRACE (or --obs) turns recording on.
void append_registry_stats(Response& response);

}  // namespace mts::net
