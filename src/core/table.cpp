#include "core/table.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/error.hpp"

namespace mts {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {
  require(!headers_.empty(), "Table: needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(), "Table: row width mismatch");
  rows_.push_back(std::move(cells));
}

namespace {

std::vector<std::size_t> column_widths(const std::vector<std::string>& headers,
                                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::render_text(std::ostream& out) const {
  const auto widths = column_widths(headers_, rows_);
  out << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    out << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

void Table::render_csv(std::ostream& out) const {
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  print_row(headers_);
  for (const auto& row : rows_) print_row(row);
}

void Table::save_csv(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  require(out.good(), "Table::save_csv: cannot open " + path);
  render_csv(out);
}

std::string format_fixed(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

}  // namespace mts
