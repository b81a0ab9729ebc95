// JSON text helpers shared by every JSON writer: metrics and trace files,
// the slow-query log, table reports, the checkpoint journal and GeoJSON.
// Header-only, so the obs layer (below mts_core) may use it too.
#pragma once

#include <cstdio>
#include <string>

namespace mts {

/// Escapes `raw` for a JSON string literal: quote, backslash, \n, \r, \t,
/// and \u00XX for the other control bytes.
inline std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `v` with nine significant digits (%.9g), the precision of every
/// reported double.
inline std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace mts
