// Slow-query log: one JSONL line per over-threshold (or failed) request.
//
// A long-running daemon needs the outlier requests themselves, not just
// their histogram bucket: which verb, which client id, how much search
// work, and — on failure — which error taxonomy.  The log is append-only
// JSON-lines so operators can tail it live and post-process with standard
// tools; each append is a single flushed write behind a mutex, so lines
// from concurrent workers never interleave.
//
// Off by default: the server only constructs one when MTS_SLOWLOG (a
// millisecond threshold) is set, so default runs create no file and pay
// nothing.  Durations pass through mts::reported_seconds at the call site,
// keeping MTS_TIMING=0 runs byte-deterministic.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/mutex.hpp"

namespace mts::obs {

/// One logged request.  `fields` carries the per-request work counters as
/// ordered key/count pairs so the obs layer stays ignorant of who counts
/// what (the server fills them from the request's WorkBudget).
struct SlowLogEntry {
  std::string verb;
  std::uint64_t id = 0;
  double latency_s = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> fields;
  std::string error;  // taxonomy string; empty on success
};

class SlowQueryLog {
 public:
  /// Opens `path` for appending; throws mts::Error when unwritable.
  explicit SlowQueryLog(const std::string& path);

  /// Serializes `entry` as one JSON object line and flushes it.
  void append(const SlowLogEntry& entry);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  Mutex mutex_;
  std::ofstream out_ MTS_GUARDED_BY(mutex_);
};

}  // namespace mts::obs
