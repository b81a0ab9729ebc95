// Machine-readable experiment records.
//
// Tables are for humans; downstream analysis (plots, regression tracking
// of this reproduction itself) wants structured output.  One JSON document
// per CityTableResult: configuration, network metrics, and per-cell
// mean/stddev/min/max for every metric.
#pragma once

#include <string>

#include "exp/table_runner.hpp"

namespace mts::exp {

/// Serializes a full city-table run (config + network metrics + cells).
std::string to_json(const CityTableResult& result);

/// Writes to_json(result) to `path` (creating parent directories).
void save_json(const CityTableResult& result, const std::string& path);

/// When MTS_METRICS/MTS_TRACE are on, writes the current metrics snapshot
/// to `<base_path>_metrics.json` and (trace only) the Chrome trace to
/// `<base_path>_trace.json`.  No-op when both knobs are off, so default
/// runs produce byte-identical artifact sets.
void save_observability(const std::string& base_path);

}  // namespace mts::exp
