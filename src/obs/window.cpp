#include "obs/window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace mts::obs {

WindowedHistogram::WindowedHistogram(double slot_seconds, std::size_t slots)
    : slot_seconds_(slot_seconds) {
  require(slot_seconds > 0.0, "WindowedHistogram: slot_seconds must be positive");
  require(slots >= 1, "WindowedHistogram: at least one slot");
  MutexLock lock(mutex_);
  slots_.resize(slots);
  for (Slot& slot : slots_) slot.buckets.assign(kHistogramBuckets, 0);
}

WindowedHistogram::Slot& WindowedHistogram::slot_for(std::int64_t key) {
  Slot& slot = slots_[static_cast<std::size_t>(key) % slots_.size()];
  if (slot.key != key) {
    // The ring position belongs to an interval that has scrolled out (or
    // was never used): reclaim it for the new interval.
    slot.key = key;
    slot.count = 0;
    slot.sum = 0.0;
    slot.min = 0.0;
    slot.max = 0.0;
    std::fill(slot.buckets.begin(), slot.buckets.end(), 0);
  }
  return slot;
}

void WindowedHistogram::record(double now_s, double value_s) {
  const auto key = static_cast<std::int64_t>(std::floor(now_s / slot_seconds_));
  MutexLock lock(mutex_);
  Slot& slot = slot_for(std::max<std::int64_t>(key, 0));
  if (slot.count == 0) {
    slot.min = value_s;
    slot.max = value_s;
  } else {
    slot.min = std::min(slot.min, value_s);
    slot.max = std::max(slot.max, value_s);
  }
  ++slot.count;
  slot.sum += value_s;
  ++slot.buckets[histogram_bucket(value_s)];
}

WindowSnapshot WindowedHistogram::snapshot(double now_s) const {
  const auto current = static_cast<std::int64_t>(std::floor(now_s / slot_seconds_));
  const auto span = static_cast<std::int64_t>(slots_.size());
  HistogramSnapshot merged;
  merged.min = std::numeric_limits<double>::infinity();
  merged.max = -std::numeric_limits<double>::infinity();
  merged.buckets.assign(kHistogramBuckets, 0);
  {
    MutexLock lock(mutex_);
    for (const Slot& slot : slots_) {
      // Live slots cover intervals (current - span, current]; anything
      // older is stale ring residue awaiting reclamation.
      if (slot.key < 0 || slot.key > current || slot.key <= current - span) continue;
      merged.count += slot.count;
      merged.sum += slot.sum;
      if (slot.count > 0) {
        merged.min = std::min(merged.min, slot.min);
        merged.max = std::max(merged.max, slot.max);
      }
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) merged.buckets[b] += slot.buckets[b];
    }
  }
  WindowSnapshot snap;
  snap.seconds = slot_seconds_ * static_cast<double>(slots_.size());
  snap.count = merged.count;
  if (merged.count == 0) return snap;
  snap.qps = static_cast<double>(merged.count) / snap.seconds;
  snap.p50_s = merged.quantile(0.50);
  snap.p99_s = merged.quantile(0.99);
  snap.min_s = merged.min;
  snap.max_s = merged.max;
  snap.sum_s = merged.sum;
  return snap;
}

}  // namespace mts::obs
