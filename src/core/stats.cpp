#include "core/stats.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace mts {

void RunningStats::add(double value) {
  ++count_;
  if (count_ == 1) {
    mean_ = min_ = max_ = value;
    m2_ = 0.0;
    return;
  }
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double q) {
  require(!values.empty(), "percentile: empty sample");
  require(q >= 0.0 && q <= 1.0, "percentile: q must be in [0, 1]");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double frac = position - static_cast<double>(lower);
  if (lower + 1 >= values.size()) return values.back();
  return values[lower] * (1.0 - frac) + values[lower + 1] * frac;
}

}  // namespace mts
