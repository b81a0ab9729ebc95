// Streaming descriptive statistics (Welford) used by the experiment
// harness to report variability alongside the paper's plain averages.
#pragma once

#include <cstddef>
#include <vector>

namespace mts {

/// Single-pass mean/variance accumulator (numerically stable), plus
/// min/max.  add() values one at a time; all queries are O(1).
class RunningStats {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample via linear interpolation between order
/// statistics; `q` in [0, 1].  Sorts a copy — fine for experiment sizes.
double percentile(std::vector<double> values, double q);

}  // namespace mts
