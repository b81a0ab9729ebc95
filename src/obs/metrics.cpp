#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/mutex.hpp"

namespace mts::obs {

namespace detail {

bool env_flag(const char* name) {
  const char* raw = env_raw(name);
  return raw != nullptr && *raw != '\0' && !(raw[0] == '0' && raw[1] == '\0');
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  detail::g_trace_override.store(on ? 1 : 0, std::memory_order_relaxed);
  // Tracing records through the metrics machinery; forcing it on while
  // metrics stay env-off would silently drop every event.
  if (on) set_metrics_enabled(true);
}

namespace {

using Clock = std::chrono::steady_clock;

/// Cap on buffered trace events per thread shard; beyond it events are
/// counted as dropped instead of buffered (a full-scale run can produce
/// millions of dijkstra scopes — the trace must not exhaust memory).
constexpr std::size_t kMaxTraceEventsPerShard = 1u << 20;

/// Single-writer accumulator cell: the owning thread is the only writer,
/// so relaxed load+store read-modify-writes are race-free; concurrent
/// snapshot readers see a consistent (if slightly stale) value.
template <typename T>
void accumulate(std::atomic<T>& cell, T delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

struct PhaseAccum {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// Value range covered by bucket `b` (see histogram_bucket): bucket 0 is
/// [0, origin), the last bucket is open-ended (treated as one octave).
std::pair<double, double> bucket_bounds(std::size_t b) {
  if (b == 0) return {0.0, kHistogramOrigin};
  const double lo = kHistogramOrigin * std::ldexp(1.0, static_cast<int>(b) - 1);
  return {lo, lo * 2.0};
}

}  // namespace

std::size_t histogram_bucket(double value) {
  if (!(value >= kHistogramOrigin)) return 0;  // also catches NaN
  const int exponent = std::ilogb(value / kHistogramOrigin);
  const std::size_t b = static_cast<std::size_t>(exponent) + 1;
  return std::min(b, kHistogramBuckets - 1);
}

double HistogramSnapshot::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "HistogramSnapshot::quantile: q out of [0, 1]");
  if (count == 0) return 0.0;
  if (count == 1) return min;
  // Fractional rank in [0, count-1], matching mts::percentile's convention.
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t below = 0;  // samples in buckets before the current one
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double in_bucket = static_cast<double>(buckets[b]);
    if (rank < static_cast<double>(below) + in_bucket) {
      // Interpolate at the rank's position within this bucket's range.
      const auto [lo, hi] = bucket_bounds(b);
      const double frac = (rank - static_cast<double>(below)) / in_bucket;
      const double estimate = lo + frac * (hi - lo);
      return std::min(std::max(estimate, min), max);
    }
    below += buckets[b];
  }
  return max;  // rank == count-1 (q == 1) lands here
}

struct MetricsRegistry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};

  struct Hist {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Hist, kMaxHistograms> histograms{};

  // Phases and trace are structurally mutable (map growth, vector append),
  // so they sit behind a shard-local mutex.  The owning thread is all but
  // alone on it: contention only happens against a concurrent snapshot.
  mutable Mutex mutex;
  std::unordered_map<std::string, PhaseAccum> phases MTS_GUARDED_BY(mutex);
  std::vector<TraceEvent> trace MTS_GUARDED_BY(mutex);
  std::atomic<std::uint64_t> trace_dropped{0};

  std::uint32_t tid = 0;

  void zero() MTS_EXCLUDES(mutex) {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
      h.max.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
    MutexLock lock(mutex);
    phases.clear();
    trace.clear();
    trace_dropped.store(0, std::memory_order_relaxed);
  }
};

class MetricsRegistry::Impl {
 public:
  // Guards registration tables, the shard list, and the epoch.  The Shard
  // objects the list owns have their own per-shard mutex; only the vector
  // (growth in local_shard) is protected here.
  mutable Mutex mutex;
  std::vector<std::string> counter_names MTS_GUARDED_BY(mutex);
  std::vector<std::string> histogram_names MTS_GUARDED_BY(mutex);
  std::vector<std::unique_ptr<Shard>> shards MTS_GUARDED_BY(mutex);
  Clock::time_point epoch MTS_GUARDED_BY(mutex) = Clock::now();
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  // Thread-local shard cache.  reset() zeroes shards in place rather than
  // discarding them, so cached pointers stay valid for the process.
  static thread_local Shard* t_shard = nullptr;
  if (t_shard != nullptr) return *t_shard;
  MutexLock lock(impl_->mutex);
  auto shard = std::make_unique<Shard>();
  shard->tid = static_cast<std::uint32_t>(impl_->shards.size());
  t_shard = shard.get();
  impl_->shards.push_back(std::move(shard));
  return *t_shard;
}

CounterId MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(impl_->mutex);
  auto& names = impl_->counter_names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return {static_cast<std::uint32_t>(i)};
  }
  require(names.size() < kMaxCounters, "MetricsRegistry: counter capacity exhausted");
  names.emplace_back(name);
  return {static_cast<std::uint32_t>(names.size() - 1)};
}

HistogramId MetricsRegistry::histogram(std::string_view name) {
  MutexLock lock(impl_->mutex);
  auto& names = impl_->histogram_names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return {static_cast<std::uint32_t>(i)};
  }
  require(names.size() < kMaxHistograms, "MetricsRegistry: histogram capacity exhausted");
  names.emplace_back(name);
  return {static_cast<std::uint32_t>(names.size() - 1)};
}

void MetricsRegistry::add(CounterId id, std::uint64_t delta) {
  accumulate(local_shard().counters[id.index], delta);
}

void MetricsRegistry::observe(HistogramId id, double value) {
  Shard::Hist& h = local_shard().histograms[id.index];
  accumulate(h.count, std::uint64_t{1});
  accumulate(h.sum, value);
  if (value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
  accumulate(h.buckets[histogram_bucket(value)], std::uint64_t{1});
}

void MetricsRegistry::record_phase(const std::string& path, double seconds) {
  Shard& shard = local_shard();
  MutexLock lock(shard.mutex);
  PhaseAccum& accum = shard.phases[path];
  ++accum.count;
  accum.seconds += seconds;
}

void MetricsRegistry::record_trace_event(const char* name, double ts_s, double dur_s) {
  Shard& shard = local_shard();
  MutexLock lock(shard.mutex);
  if (shard.trace.size() >= kMaxTraceEventsPerShard) {
    accumulate(shard.trace_dropped, std::uint64_t{1});
    return;
  }
  TraceEvent event;
  event.name = name;
  event.ts_s = ts_s;
  event.dur_s = dur_s;
  event.tid = shard.tid;
  shard.trace.push_back(std::move(event));
}

void MetricsRegistry::record_trace_event(TraceEvent event) {
  Shard& shard = local_shard();
  MutexLock lock(shard.mutex);
  if (shard.trace.size() >= kMaxTraceEventsPerShard) {
    accumulate(shard.trace_dropped, std::uint64_t{1});
    return;
  }
  event.tid = shard.tid;
  shard.trace.push_back(std::move(event));
}

double MetricsRegistry::seconds_since_epoch() const {
  // Latent race surfaced by the thread-safety annotations: epoch is written
  // by reset() under the registry mutex, so an unlocked read here could see
  // a torn time_point on a concurrent reset.  Take the lock (cold path:
  // only reached with metrics enabled).
  MutexLock lock(impl_->mutex);
  return std::chrono::duration<double>(Clock::now() - impl_->epoch).count();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(impl_->mutex);

  snap.counters.resize(impl_->counter_names.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    snap.counters[i].name = impl_->counter_names[i];
  }
  snap.histograms.resize(impl_->histogram_names.size());
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    snap.histograms[i].name = impl_->histogram_names[i];
    snap.histograms[i].min = std::numeric_limits<double>::infinity();
    snap.histograms[i].max = -std::numeric_limits<double>::infinity();
    snap.histograms[i].buckets.assign(kHistogramBuckets, 0);
  }

  std::map<std::string, PhaseAccum> merged_phases;
  for (const auto& shard : impl_->shards) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      const Shard::Hist& h = shard->histograms[i];
      HistogramSnapshot& out = snap.histograms[i];
      out.count += h.count.load(std::memory_order_relaxed);
      out.sum += h.sum.load(std::memory_order_relaxed);
      out.min = std::min(out.min, h.min.load(std::memory_order_relaxed));
      out.max = std::max(out.max, h.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
    }
    snap.trace_events_dropped += shard->trace_dropped.load(std::memory_order_relaxed);
    MutexLock shard_lock(shard->mutex);
    // Per-path fold into an ordered std::map; visit order cannot change
    // the merged result.  mts-lint: allow(no-unordered-output)
    for (const auto& [path, accum] : shard->phases) {
      PhaseAccum& merged = merged_phases[path];
      merged.count += accum.count;
      merged.seconds += accum.seconds;
    }
  }

  for (auto& hist : snap.histograms) {
    if (hist.count == 0) {
      hist.min = 0.0;
      hist.max = 0.0;
    }
  }
  snap.phases.reserve(merged_phases.size());
  for (const auto& [path, accum] : merged_phases) {
    snap.phases.push_back({path, accum.count, accum.seconds});
  }
  // Counter/histogram name order is registration order; sort for stable,
  // reader-friendly output.
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) { return a.name < b.name; });
  std::sort(
      snap.histograms.begin(), snap.histograms.end(),
      [](const HistogramSnapshot& a, const HistogramSnapshot& b) { return a.name < b.name; });
  return snap;
}

std::vector<TraceEvent> MetricsRegistry::trace_events() const {
  std::vector<TraceEvent> events;
  MutexLock lock(impl_->mutex);
  for (const auto& shard : impl_->shards) {
    MutexLock shard_lock(shard->mutex);
    events.insert(events.end(), shard->trace.begin(), shard->trace.end());
  }
  return events;
}

void MetricsRegistry::reset() {
  MutexLock lock(impl_->mutex);
  for (const auto& shard : impl_->shards) shard->zero();
  impl_->epoch = Clock::now();
}

}  // namespace mts::obs
