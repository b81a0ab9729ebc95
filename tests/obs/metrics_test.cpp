#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/stats.hpp"

namespace mts::obs {
namespace {

/// The registry is a process-wide singleton shared by every test in this
/// binary; each test turns recording on and resets to a clean slate.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    MetricsRegistry::instance().reset();
    set_metrics_enabled(false);
    set_trace_enabled(false);
  }
};

const CounterSnapshot* find_counter(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& counter : snap.counters) {
    if (counter.name == name) return &counter;
  }
  return nullptr;
}

const HistogramSnapshot* find_histogram(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& hist : snap.histograms) {
    if (hist.name == name) return &hist;
  }
  return nullptr;
}

TEST_F(MetricsTest, RegistrationIsIdempotent) {
  auto& registry = MetricsRegistry::instance();
  const CounterId a = registry.counter("test.idempotent");
  const CounterId b = registry.counter("test.idempotent");
  EXPECT_EQ(a.index, b.index);
  const HistogramId ha = registry.histogram("test.idempotent_hist");
  const HistogramId hb = registry.histogram("test.idempotent_hist");
  EXPECT_EQ(ha.index, hb.index);
}

TEST_F(MetricsTest, CounterAddShowsUpInSnapshot) {
  auto& registry = MetricsRegistry::instance();
  const CounterId id = registry.counter("test.basic_counter");
  add(id);
  add(id, 41);
  const auto snap = registry.snapshot();
  const auto* counter = find_counter(snap, "test.basic_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 42u);
}

TEST_F(MetricsTest, HistogramTracksCountSumMinMaxBuckets) {
  auto& registry = MetricsRegistry::instance();
  const HistogramId id = registry.histogram("test.basic_hist");
  observe(id, 0.5);
  observe(id, 2.0);
  observe(id, 8.0);
  const auto snap = registry.snapshot();
  const auto* hist = find_histogram(snap, "test.basic_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_DOUBLE_EQ(hist->sum, 10.5);
  EXPECT_DOUBLE_EQ(hist->min, 0.5);
  EXPECT_DOUBLE_EQ(hist->max, 8.0);
  ASSERT_EQ(hist->buckets.size(), kHistogramBuckets);
  std::uint64_t bucket_total = 0;
  for (const auto b : hist->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 3u);
}

TEST_F(MetricsTest, EmptyHistogramReportsZeroMinMax) {
  auto& registry = MetricsRegistry::instance();
  registry.histogram("test.empty_hist");
  const auto snap = registry.snapshot();
  const auto* hist = find_histogram(snap, "test.empty_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 0u);
  EXPECT_DOUBLE_EQ(hist->min, 0.0);
  EXPECT_DOUBLE_EQ(hist->max, 0.0);
}

TEST_F(MetricsTest, DisabledRecordingIsANoOp) {
  auto& registry = MetricsRegistry::instance();
  const CounterId id = registry.counter("test.gated_counter");
  set_metrics_enabled(false);
  add(id, 100);
  set_metrics_enabled(true);
  add(id, 1);
  const auto snap = registry.snapshot();
  const auto* counter = find_counter(snap, "test.gated_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 1u);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  auto& registry = MetricsRegistry::instance();
  const CounterId id = registry.counter("test.reset_counter");
  const HistogramId hid = registry.histogram("test.reset_hist");
  add(id, 7);
  observe(hid, 3.0);
  registry.reset();
  const auto snap = registry.snapshot();
  const auto* counter = find_counter(snap, "test.reset_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 0u);
  const auto* hist = find_histogram(snap, "test.reset_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 0u);
}

TEST_F(MetricsTest, SnapshotIsSortedByName) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.zz");
  registry.counter("test.aa");
  const auto snap = registry.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

// The TSan target: N threads hammer one counter and one histogram through
// their per-thread shards while the main thread snapshots concurrently;
// the final snapshot must equal the exact sum of all recorded work.
TEST_F(MetricsTest, ConcurrentRecordingSumsExactly) {
  auto& registry = MetricsRegistry::instance();
  const CounterId id = registry.counter("test.concurrent_counter");
  const HistogramId hid = registry.histogram("test.concurrent_hist");

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kIterations = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        add(id);
        observe(hid, 1.0);
      }
    });
  }
  // Concurrent snapshots must be safe (values may be mid-flight but the
  // call itself races with nothing it shouldn't).
  for (int i = 0; i < 10; ++i) (void)registry.snapshot();
  for (auto& thread : threads) thread.join();

  const auto snap = registry.snapshot();
  const auto* counter = find_counter(snap, "test.concurrent_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, kThreads * kIterations);
  const auto* hist = find_histogram(snap, "test.concurrent_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads * kIterations);
  EXPECT_DOUBLE_EQ(hist->sum, static_cast<double>(kThreads * kIterations));
}

// With no override set, the gates answer from the environment, which they
// read once per process into function-local statics and then never lock.
// Threads that reach the gate at the same time, first read included, must
// agree with each other and with the recording they do; under TSan (the
// ci.sh ConcurrentRecording filter) this loop is the race proof.
TEST_F(MetricsTest, ConcurrentRecordingThroughTheEnvironmentGate) {
  auto& registry = MetricsRegistry::instance();
  const CounterId id = registry.counter("test.env_gate_counter");
  detail::g_metrics_override.store(-1);
  detail::g_trace_override.store(-1);

  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kIterations = 10000;
  std::vector<std::uint8_t> metrics_on(kThreads, 0);
  std::vector<std::uint8_t> disagreed(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      metrics_on[t] = metrics_enabled() ? 1 : 0;
      const bool trace_on = trace_enabled();
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        if (metrics_enabled() != (metrics_on[t] != 0) || trace_enabled() != trace_on) {
          disagreed[t] = 1;
        }
        add(id);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(disagreed[t], 0) << "thread " << t;
    EXPECT_EQ(metrics_on[t], metrics_on[0]) << "thread " << t;
  }
  const auto snap = registry.snapshot();
  const auto* counter = find_counter(snap, "test.env_gate_counter");
  const std::uint64_t recorded = counter == nullptr ? 0 : counter->value;
  EXPECT_EQ(recorded, metrics_on[0] != 0 ? kThreads * kIterations : 0);
}

// Regression for a race surfaced by the thread-safety annotations:
// seconds_since_epoch() used to read the registry epoch without the lock
// while reset() rewrote it, so a concurrent reset could hand out a torn
// time_point.  Under TSan this loop is the proof the fix holds; the name
// keeps it inside the ci.sh tsan sweep (ConcurrentRecording filter).
TEST_F(MetricsTest, ConcurrentRecordingEpochResetRace) {
  auto& registry = MetricsRegistry::instance();
  constexpr int kIterations = 2000;
  std::thread resetter([&] {
    for (int i = 0; i < kIterations; ++i) registry.reset();
  });
  for (int i = 0; i < kIterations; ++i) {
    // Never negative: both epoch writes and reads are now serialized on
    // the registry mutex, and the epoch only moves forward.
    EXPECT_GE(registry.seconds_since_epoch(), 0.0);
  }
  resetter.join();
}

TEST_F(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  auto& registry = MetricsRegistry::instance();
  registry.histogram("test.quantile_empty");
  const auto snap = registry.snapshot();
  const auto* hist = find_histogram(snap, "test.quantile_empty");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 0.0);
}

TEST_F(MetricsTest, QuantileIsExactForSingleValuedHistogram) {
  // Every sample identical: min == max clamps every quantile to the exact
  // value regardless of where the bucket interpolation lands.
  auto& registry = MetricsRegistry::instance();
  const HistogramId id = registry.histogram("test.quantile_single");
  for (int i = 0; i < 100; ++i) observe(id, 0.003);
  const auto snap = registry.snapshot();
  const auto* hist = find_histogram(snap, "test.quantile_single");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->quantile(0.0), 0.003);
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 0.003);
  EXPECT_DOUBLE_EQ(hist->quantile(0.99), 0.003);
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 0.003);
}

TEST_F(MetricsTest, QuantileMergesAcrossThreadShards) {
  // Half the samples land in another thread's shard; the snapshot merge
  // must see one histogram, so the median sits between the two clusters.
  auto& registry = MetricsRegistry::instance();
  const HistogramId id = registry.histogram("test.quantile_shards");
  for (int i = 0; i < 50; ++i) observe(id, 0.001);
  std::thread other([&] {
    for (int i = 0; i < 50; ++i) observe(id, 0.512);
  });
  other.join();
  const auto snap = registry.snapshot();
  const auto* hist = find_histogram(snap, "test.quantile_shards");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 100u);
  EXPECT_LE(hist->quantile(0.25), 0.01);   // inside the low cluster's bucket
  EXPECT_GE(hist->quantile(0.75), 0.256);  // inside the high cluster's bucket
}

TEST_F(MetricsTest, QuantileIsNondecreasingInQ) {
  auto& registry = MetricsRegistry::instance();
  const HistogramId id = registry.histogram("test.quantile_monotone");
  for (int i = 1; i <= 200; ++i) observe(id, 1e-5 * i);
  const auto snap = registry.snapshot();
  const auto* hist = find_histogram(snap, "test.quantile_monotone");
  ASSERT_NE(hist, nullptr);
  double previous = hist->quantile(0.0);
  EXPECT_DOUBLE_EQ(previous, hist->min);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double current = hist->quantile(q);
    EXPECT_GE(current, previous) << "q=" << q;
    previous = current;
  }
  EXPECT_LE(hist->quantile(1.0), hist->max);
}

TEST_F(MetricsTest, QuantileMatchesExactPercentileWithinOneBucket) {
  // The log2 buckets bound the error by a factor of 2 of the true sample
  // quantile (one bucket width); verify against the shared exact
  // estimator on a spread of values.
  auto& registry = MetricsRegistry::instance();
  const HistogramId id = registry.histogram("test.quantile_vs_exact");
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    const double value = 1e-4 * (1.0 + (i % 97));  // 0.1 ms .. ~9.8 ms
    samples.push_back(value);
    observe(id, value);
  }
  const auto snap = registry.snapshot();
  const auto* hist = find_histogram(snap, "test.quantile_vs_exact");
  ASSERT_NE(hist, nullptr);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = mts::percentile(samples, q);
    const double estimate = hist->quantile(q);
    EXPECT_GE(estimate, exact / 2.0) << "q=" << q;
    EXPECT_LE(estimate, exact * 2.0) << "q=" << q;
  }
}

TEST_F(MetricsTest, TraceImpliesMetrics) {
  set_metrics_enabled(false);
  set_trace_enabled(true);
  EXPECT_TRUE(trace_enabled());
  EXPECT_TRUE(metrics_enabled());
}

}  // namespace
}  // namespace mts::obs
