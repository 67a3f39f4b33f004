#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace tempriv::metrics {

/// Aligned console tables + CSV output for the benchmark harness. Every
/// bench binary prints its figure/table as rows of (x, series...) so the
/// paper's plots can be regenerated by piping the CSV into any plotter.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Adds a row; must have exactly as many cells as there are columns.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  void add_numeric_row(const std::vector<double>& cells, int precision = 4);

  /// Writes an aligned, human-readable table.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (no quoting needed for our numeric content).
  void write_csv(std::ostream& os) const;

  /// Writes the CSV to `path`; throws std::runtime_error on I/O failure.
  void save_csv(const std::string& path) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double compactly (fixed for moderate magnitudes, scientific
/// for very large/small), matching how the paper labels its axes.
std::string format_number(double value, int precision = 4);

}  // namespace tempriv::metrics
