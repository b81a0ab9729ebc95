// Instrumentation registry: named counters, histograms, and phase rollups.
//
// Design (see DESIGN.md "Observability"):
//   * Off by default.  Every hot-path helper first checks metrics_enabled(),
//     a relaxed atomic load, so an uninstrumented run pays one predictable
//     branch per site and nothing else.  MTS_METRICS=1 or MTS_TRACE=1 (or
//     the programmatic setters) turn recording on.
//   * Per-thread shards.  Each thread records into its own fixed-size block
//     of relaxed atomics, so counters and histograms are contention-free;
//     snapshot() aggregates across shards.  Shards are owned by the
//     registry and outlive their threads, so late snapshots see all work.
//   * Durations obey MTS_TIMING.  ScopedPhase (phase.hpp) and every
//     duration-valued observation route through mts::reported_seconds(), so
//     MTS_TIMING=0 zeroes all reported time while counts stay exact.
//
// Instrumentation sites hold ids in function-local statics:
//
//   static const obs::CounterId kPushed =
//       obs::MetricsRegistry::instance().counter("yen.candidates_pushed");
//   obs::add(kPushed, pushed);
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mts::obs {

namespace detail {
/// -1 = decide from the environment on first query; 0/1 = forced.
inline std::atomic<int> g_metrics_override{-1};
inline std::atomic<int> g_trace_override{-1};
/// True when `name` is set to anything but "" or "0".  Uncached: the
/// gates below keep its answer in function-local statics, so the
/// environment is read once per process and a gate never locks.
bool env_flag(const char* name);
}  // namespace detail

/// True when counters/histograms/phases are recorded: MTS_METRICS=1,
/// MTS_TRACE=1 (tracing needs phase data), or set_metrics_enabled(true).
inline bool metrics_enabled() {
  const int forced = detail::g_metrics_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool from_env = detail::env_flag("MTS_METRICS") || detail::env_flag("MTS_TRACE");
  return from_env;
}

/// True when phase scopes additionally emit Chrome trace events.
inline bool trace_enabled() {
  const int forced = detail::g_trace_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool from_env = detail::env_flag("MTS_TRACE");
  return from_env;
}

/// Programmatic overrides (tests, CLI --trace).  Overrides win over the
/// environment until the process exits.
void set_metrics_enabled(bool on);
void set_trace_enabled(bool on);

/// Shard capacity: registration beyond these limits is a precondition
/// violation (the metric catalog is finite and reviewed, not dynamic).
inline constexpr std::size_t kMaxCounters = 128;
inline constexpr std::size_t kMaxHistograms = 32;
/// Log2 histogram buckets: bucket b counts values in
/// [kHistogramOrigin * 2^(b-1), kHistogramOrigin * 2^b); bucket 0 is
/// everything below the origin, the last bucket absorbs overflow.
inline constexpr std::size_t kHistogramBuckets = 32;
inline constexpr double kHistogramOrigin = 1e-6;  // 1 us for duration values

/// The bucket `value` falls in (NaN lands in bucket 0).  The registry's
/// histograms and the daemon's windowed one (obs/window.hpp) both bucket
/// with it, so either feeds HistogramSnapshot::quantile.
std::size_t histogram_bucket(double value);

struct CounterId {
  std::uint32_t index = 0;
};
struct HistogramId {
  std::uint32_t index = 0;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets entries

  /// Quantile estimate from the log2 buckets: walks the cumulative counts
  /// to the bucket holding rank q*(count-1), then interpolates linearly
  /// inside that bucket's value range, clamped to the exact [min, max]
  /// observed.  The estimate is exact for single-valued histograms,
  /// nondecreasing in q, and within one bucket width (a factor of 2 at
  /// these log buckets) of the true sample quantile.  Returns 0 when the
  /// histogram is empty; requires q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
};

struct PhaseSnapshot {
  std::string path;  // "cell/attack/oracle", '/'-joined nesting
  std::uint64_t count = 0;
  double seconds = 0.0;  // already gated by MTS_TIMING at record time
};

/// One Chrome trace_event-compatible complete event ("ph":"X").
struct TraceEvent {
  std::string name;   // leaf phase name
  double ts_s = 0.0;  // seconds since registry epoch
  double dur_s = 0.0;
  std::uint32_t tid = 0;   // shard index, stable per thread
  std::string cat = "mts";  // event category; request spans use "mts.request"
  /// Ordered key=value annotations, emitted as the trace "args" object.
  /// Empty for phase events, so pre-span traces stay byte-identical.
  std::vector<std::pair<std::string, std::string>> args;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;      // name-sorted
  std::vector<HistogramSnapshot> histograms;  // name-sorted
  std::vector<PhaseSnapshot> phases;          // path-sorted
  std::uint64_t trace_events_dropped = 0;
};

class MetricsRegistry {
 public:
  /// Process-wide singleton (function-local static: constructed on first
  /// use, destroyed at normal process exit).
  static MetricsRegistry& instance();

  /// Registers (or looks up) a metric by name and returns its dense id.
  /// Idempotent; intended for function-local statics, not hot loops.
  CounterId counter(std::string_view name);
  HistogramId histogram(std::string_view name);

  /// Hot-path recording.  Caller is responsible for the enabled() check
  /// (the obs::add/obs::observe wrappers below do it).
  void add(CounterId id, std::uint64_t delta);
  void observe(HistogramId id, double value);

  /// Phase rollup + trace entry points for ScopedPhase.
  void record_phase(const std::string& path, double seconds);
  void record_trace_event(const char* name, double ts_s, double dur_s);

  /// Buffers a fully-formed event (request spans: custom cat + args).  The
  /// event's tid is overwritten with the recording thread's shard index;
  /// the same per-shard buffer cap applies.
  void record_trace_event(TraceEvent event);

  /// Seconds since the registry epoch (construction or last reset()).
  [[nodiscard]] double seconds_since_epoch() const;

  /// Aggregates every shard.  Safe to call concurrently with recording;
  /// values recorded while snapshotting may or may not be included.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Copies of all trace events, ordered by (tid, emission order).
  [[nodiscard]] std::vector<TraceEvent> trace_events() const;

  /// Zeroes all counters/histograms, clears phases and trace buffers, and
  /// restarts the epoch.  For tests and per-run isolation in benches.
  void reset();

 private:
  struct Shard;
  class Impl;

  MetricsRegistry();
  ~MetricsRegistry();

  Shard& local_shard();

  std::unique_ptr<Impl> impl_;
};

/// Enabled-gated convenience wrappers used at instrumentation sites.
inline void add(CounterId id, std::uint64_t delta = 1) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().add(id, delta);
}

inline void observe(HistogramId id, double value) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().observe(id, value);
}

}  // namespace mts::obs
