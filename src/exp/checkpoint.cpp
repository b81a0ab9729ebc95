#include "exp/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "core/error.hpp"
#include "core/json.hpp"

namespace mts::exp {

namespace {

constexpr const char* kHeaderPrefix = "{\"journal\":\"mts-cells\",\"v\":1,\"fingerprint\":\"";

/// %.17g round-trips every finite double exactly through strtod.
std::string exact_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string header_line(const std::string& fingerprint) {
  return kHeaderPrefix + json_escape(fingerprint) + "\"}";
}

/// Position just past `"key":` in `line`, or npos.
std::size_t value_pos(const std::string& line, const char* key) {
  const std::string token = std::string("\"") + key + "\":";
  const std::size_t at = line.find(token);
  if (at == std::string::npos) return std::string::npos;
  return at + token.size();
}

bool parse_string(const std::string& line, const char* key, std::string& out) {
  std::size_t pos = value_pos(line, key);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"') return false;
  ++pos;
  std::string escaped;
  while (pos < line.size() && line[pos] != '"') {
    if (line[pos] == '\\') {
      if (pos + 1 >= line.size()) return false;
      escaped.push_back(line[pos]);
      escaped.push_back(line[pos + 1]);
      pos += 2;
    } else {
      escaped.push_back(line[pos]);
      ++pos;
    }
  }
  if (pos >= line.size()) return false;  // unterminated literal
  out = json_unescape(escaped);
  return true;
}

/// A number's field ends exactly at the next key or the record's end:
/// "7x," or "7 }" is a corrupt value, not 7.
bool ends_field(const char* end) { return *end == ',' || *end == '}'; }

bool parse_double(const std::string& line, const char* key, double& out) {
  const std::size_t pos = value_pos(line, key);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos;
  char* end = nullptr;
  out = std::strtod(start, &end);
  return end != start && ends_field(end);
}

bool parse_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const std::size_t pos = value_pos(line, key);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos;
  // strtoull would skip spaces and wrap "-1" to 2^64 - 1: digits only.
  if (*start < '0' || *start > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(start, &end, 10);
  return errno != ERANGE && ends_field(end);
}

bool parse_bool(const std::string& line, const char* key, bool& out) {
  const std::size_t pos = value_pos(line, key);
  if (pos == std::string::npos) return false;
  if (line.compare(pos, 4, "true") == 0) {
    out = true;
    return true;
  }
  if (line.compare(pos, 5, "false") == 0) {
    out = false;
    return true;
  }
  return false;
}

bool parse_record(const std::string& line, CellRecord& record) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  return parse_u64(line, "task", record.task) && parse_string(line, "status", record.status) &&
         parse_bool(line, "verified", record.verified) &&
         parse_string(line, "verify_reason", record.verify_reason) &&
         parse_bool(line, "fallback", record.fallback_used) &&
         parse_string(line, "fallback_reason", record.fallback_reason) &&
         parse_double(line, "seconds", record.seconds) &&
         parse_u64(line, "removed", record.removed) &&
         parse_double(line, "total_cost", record.total_cost);
}

std::string format_record(const CellRecord& record) {
  std::string line = "{\"task\":" + std::to_string(record.task);
  line += ",\"status\":\"" + json_escape(record.status) + "\"";
  line += std::string(",\"verified\":") + (record.verified ? "true" : "false");
  line += ",\"verify_reason\":\"" + json_escape(record.verify_reason) + "\"";
  line += std::string(",\"fallback\":") + (record.fallback_used ? "true" : "false");
  line += ",\"fallback_reason\":\"" + json_escape(record.fallback_reason) + "\"";
  line += ",\"seconds\":" + exact_number(record.seconds);
  line += ",\"removed\":" + std::to_string(record.removed);
  line += ",\"total_cost\":" + exact_number(record.total_cost);
  line += "}";
  return line;
}

}  // namespace

std::string json_unescape(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 >= escaped.size()) {
      out.push_back(escaped[i]);
      continue;
    }
    const char next = escaped[++i];
    switch (next) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u':
        if (i + 4 < escaped.size()) {
          const std::string hex = escaped.substr(i + 1, 4);
          out.push_back(static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16)));
          i += 4;
        }
        break;
      default: out.push_back(next); break;
    }
  }
  return out;
}

CheckpointJournal::CheckpointJournal(const std::string& path, const std::string& fingerprint)
    : path_(path) {
  require(!path.empty(), "checkpoint: empty journal path");
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());

  bool need_header = true;
  {
    std::ifstream in(p);
    std::string first;
    if (in.good() && std::getline(in, first) && !first.empty()) {
      if (first != header_line(fingerprint)) {
        throw InvalidInput("checkpoint: journal " + path +
                           " was written under a different configuration "
                           "(fingerprint mismatch); delete it or fix the knobs");
      }
      need_header = false;
    }
  }

  // No other thread can hold a reference during construction; the lock is
  // taken anyway so the guarded-member accesses are analysis-clean.
  MutexLock lock(mutex_);
  out_.open(p, std::ios::app);
  require(out_.good(), "checkpoint: cannot open journal " + path);
  if (need_header) {
    out_ << header_line(fingerprint) << '\n';
    out_.flush();
  }
}

void CheckpointJournal::append(const CellRecord& record) {
  const std::string line = format_record(record);
  MutexLock lock(mutex_);
  out_ << line << '\n';
  out_.flush();
}

std::unordered_map<std::uint64_t, CellRecord> CheckpointJournal::load(
    const std::string& path, const std::string& fingerprint) {
  std::unordered_map<std::uint64_t, CellRecord> records;
  std::ifstream in(path);
  if (!in.good()) return records;  // no journal yet: nothing completed

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  if (lines.empty()) return records;

  if (lines.front() != header_line(fingerprint)) {
    throw InvalidInput("checkpoint: journal " + path +
                       " was written under a different configuration "
                       "(fingerprint mismatch); delete it or fix the knobs");
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    CellRecord record;
    if (!parse_record(lines[i], record)) {
      // A kill mid-append leaves at most one torn line, and only at the end.
      if (i + 1 == lines.size()) break;
      throw InvalidInput("checkpoint: corrupt journal line " + std::to_string(i + 1) + " in " +
                         path);
    }
    records[record.task] = std::move(record);
  }
  return records;
}

}  // namespace mts::exp
