// Shared pieces of the benchmark program: run arguments, the metric record
// every workload fills, and the measurement helpers (percentiles, phase
// self time, registry counters) the workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one answer before the checks run, so the test
  /// can prove a wrong answer is counted as a failure.
  bool plant_wrong_answer = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (measured untraced in every run).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (trace runs only).
  std::vector<Metric> per_layer;
  /// Run facts printed as `# key=value` lines ahead of the result.
  std::vector<std::pair<std::string, std::string>> facts;
  /// One line per failed check.
  std::vector<std::string> failures;
  /// False when the measurement itself is not trustworthy (the open-loop
  /// sender fell behind its schedule): the run is invalid, not slow.
  bool valid = true;

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(what));
  }
  void fact(const std::string& key, const std::string& value) { facts.emplace_back(key, value); }
  void fact(const std::string& key, double value);
};

Outcome run_table_workload(const Args& args);
Outcome run_serve_workload(const Args& args);

// --- measurement helpers (report.cpp) ---

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Interpolated quantile of an unsorted sample (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Registry view for the per-layer metrics of a traced pass.
class LayerView {
 public:
  explicit LayerView(mts::obs::MetricsSnapshot snapshot);

  /// Counter value, 0 when the counter was never registered.
  [[nodiscard]] double counter(const std::string& name) const;

  /// Summed self time (inclusive minus direct children) of every phase
  /// whose leaf name is `leaf`, across all nesting paths.
  [[nodiscard]] double self_seconds(const std::string& leaf) const;

  /// Summed inclusive time of every phase whose leaf name is `leaf`.
  [[nodiscard]] double inclusive_seconds(const std::string& leaf) const;

 private:
  mts::obs::MetricsSnapshot snapshot_;
};

/// Metrics-registry state for one traced pass: clears the registry and turns
/// recording on; stop() turns it off again and returns what was recorded.
class TracedPass {
 public:
  TracedPass();
  ~TracedPass();
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;

  LayerView stop();

 private:
  bool active_ = true;
};

/// Ratio that reads 0 instead of NaN/inf when the denominator is 0 (an idle
/// layer on this workload).
inline double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Appends the registry-derived per-layer metrics every workload reports:
/// the work counters of the search, LP, attack and verifier layers, their
/// useful-work ratios, and phase self times.
void append_registry_layers(const LayerView& view, std::vector<Metric>& layers);

/// FNV-1a over a byte string, for the run's input digest.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash = 1469598103934665603ULL);

std::string hex64(std::uint64_t value);

}  // namespace perfbench
