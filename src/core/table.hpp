// Formatted table output (aligned text, CSV) used by the
// benchmark harness to print the paper's tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mts {

/// A simple row/column table of strings with a title, rendered in three
/// formats.  Numeric cells should be pre-formatted by the caller (see
/// format_fixed below).
class Table {
 public:
  Table(std::string title, std::vector<std::string> headers);

  /// Appends a row; its size must match the header count.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

  /// Monospace-aligned rendering for terminals.
  void render_text(std::ostream& out) const;
  /// RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines).
  void render_csv(std::ostream& out) const;

  /// Writes CSV to `path`, creating parent directories if needed.
  void save_csv(const std::string& path) const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `v` with `decimals` digits after the point ("3.58").
std::string format_fixed(double v, int decimals = 2);

}  // namespace mts
