// Append-only JSONL checkpoint journal for experiment grids.
//
// The parallel harness appends one record per *cleanly completed* cell task
// (quarantined cells are deliberately absent, so a resumed run retries
// them).  Each record carries exactly the reduction inputs table_runner
// folds into CellStats — status, verification verdict, wall-clock, removal
// count, cut cost — with doubles serialized at %.17g so a resumed reduction
// is bit-identical to the original one (DESIGN.md §10).
//
// File format (one JSON object per line):
//   {"journal":"mts-cells","v":1,"fingerprint":"<config fingerprint>"}
//   {"task":17,"status":"success","verified":true,...}
//   ...
// The header fingerprint pins every configuration knob that changes
// results; loading a journal under a different configuration throws
// InvalidInput instead of silently mixing incompatible cells.  A trailing
// partial line (process killed mid-write) is skipped, not an error.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>

#include "core/annotations.hpp"
#include "core/mutex.hpp"

namespace mts::exp {

/// Reduction inputs of one completed (scenario, cost, algorithm) task.
struct CellRecord {
  std::uint64_t task = 0;  // flat task index in the grid's parallel_for
  std::string status;      // attack::to_string(AttackStatus) value
  bool verified = false;
  std::string verify_reason;
  bool fallback_used = false;
  std::string fallback_reason;
  double seconds = 0.0;
  std::uint64_t removed = 0;
  double total_cost = 0.0;
};

/// Inverse of json_escape (core/json.hpp; also accepts \uXXXX for ASCII
/// code points).
std::string json_unescape(const std::string& escaped);

class CheckpointJournal {
 public:
  /// Opens `path` for appending.  Writes the header line when the file is
  /// new or empty; otherwise verifies the existing header's fingerprint and
  /// throws InvalidInput on a mismatch (or a non-journal file).
  CheckpointJournal(const std::string& path, const std::string& fingerprint);

  /// Appends one record and flushes, so a kill at any point loses at most
  /// the record being written.  Thread-safe.
  void append(const CellRecord& record) MTS_EXCLUDES(mutex_);

  /// Parses the journal at `path` into task -> record.  Returns an empty
  /// map when the file does not exist.  Throws InvalidInput when the header
  /// fingerprint does not match `fingerprint`.  A trailing unparsable line
  /// is ignored (kill mid-write); unparsable interior lines throw.
  static std::unordered_map<std::uint64_t, CellRecord> load(const std::string& path,
                                                            const std::string& fingerprint);

 private:
  Mutex mutex_;
  std::ofstream out_ MTS_GUARDED_BY(mutex_);  // writer stream shared by all cells
  const std::string path_;                    // immutable after construction
};

}  // namespace mts::exp
