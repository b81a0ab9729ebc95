#include "obs/slowlog.hpp"

#include <filesystem>

#include "core/error.hpp"
#include "core/json.hpp"

namespace mts::obs {

SlowQueryLog::SlowQueryLog(const std::string& path) : path_(path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  MutexLock lock(mutex_);
  out_.open(p, std::ios::app);
  require(out_.good(), "slowlog: cannot open " + path);
}

void SlowQueryLog::append(const SlowLogEntry& entry) {
  std::string line = "{\"verb\":\"" + json_escape(entry.verb) + "\"";
  line += ",\"id\":" + std::to_string(entry.id);
  line += ",\"latency_ms\":" + json_number(entry.latency_s * 1e3);
  for (const auto& [key, value] : entry.fields) {
    line += ",\"" + json_escape(key) + "\":" + std::to_string(value);
  }
  if (!entry.error.empty()) line += ",\"error\":\"" + json_escape(entry.error) + "\"";
  line += "}\n";
  // One formatted line per write, flushed under the mutex: concurrent
  // workers never interleave bytes and a tail -f sees whole records.
  MutexLock lock(mutex_);
  out_ << line;
  out_.flush();
}

}  // namespace mts::obs
