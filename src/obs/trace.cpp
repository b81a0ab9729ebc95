#include "obs/trace.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "core/error.hpp"
#include "core/json.hpp"

namespace mts::obs {

namespace {

void open_for_write(std::ofstream& out, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  out.open(p);
  require(out.good(), "obs: cannot open " + path);
}

}  // namespace

void write_metrics_json(const MetricsSnapshot& snapshot, const RunInfo& run, std::ostream& out) {
  out << "{\"run\":{\"threads_requested\":" << run.threads_requested
      << ",\"threads_effective\":" << run.threads_effective
      << ",\"timing\":" << (run.timing ? "true" : "false") << "}";

  out << ",\"counters\":{";
  bool first = true;
  for (const auto& counter : snapshot.counters) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(counter.name) << "\":" << counter.value;
  }
  out << "}";

  out << ",\"histograms\":{";
  first = true;
  for (const auto& hist : snapshot.histograms) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(hist.name) << "\":{\"count\":" << hist.count
        << ",\"sum\":" << json_number(hist.sum) << ",\"min\":" << json_number(hist.min)
        << ",\"max\":" << json_number(hist.max) << ",\"buckets\":[";
    // Sparse bucket encoding: [index, count] pairs for nonzero buckets.
    bool first_bucket = true;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      if (hist.buckets[b] == 0) continue;
      if (!first_bucket) out << ',';
      first_bucket = false;
      out << '[' << b << ',' << hist.buckets[b] << ']';
    }
    out << "]}";
  }
  out << "}";

  out << ",\"phases\":[";
  first = true;
  for (const auto& phase : snapshot.phases) {
    if (!first) out << ',';
    first = false;
    out << "{\"path\":\"" << json_escape(phase.path) << "\",\"count\":" << phase.count
        << ",\"seconds\":" << json_number(phase.seconds) << '}';
  }
  out << "]";

  out << ",\"trace_events_dropped\":" << snapshot.trace_events_dropped << "}";
}

void write_chrome_trace(const std::vector<TraceEvent>& events, std::ostream& out) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& event : events) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\"" << json_escape(event.cat)
        << "\",\"ph\":\"X\",\"ts\":" << json_number(event.ts_s * 1e6)
        << ",\"dur\":" << json_number(event.dur_s * 1e6) << ",\"pid\":1,\"tid\":" << event.tid;
    // The args object appears only when annotations exist, so traces from
    // arg-free runs are byte-identical to the pre-span format.
    if (!event.args.empty()) {
      out << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) out << ',';
        first_arg = false;
        out << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
      }
      out << '}';
    }
    out << '}';
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
}

void save_metrics_json(const MetricsSnapshot& snapshot, const RunInfo& run,
                       const std::string& path) {
  std::ofstream out;
  open_for_write(out, path);
  write_metrics_json(snapshot, run, out);
  require(out.good(), "obs: write failed for " + path);
}

void save_chrome_trace(const std::vector<TraceEvent>& events, const std::string& path) {
  std::ofstream out;
  open_for_write(out, path);
  write_chrome_trace(events, out);
  require(out.good(), "obs: write failed for " + path);
}

}  // namespace mts::obs
