// Plain-text table formatting for experiment reports.
//
// Every bench binary prints its results through TextTable so that the
// regenerated "paper tables" have a uniform, diffable appearance.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mhs {

/// Accumulates rows of strings and renders an aligned ASCII table.
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row. Precondition: row.size() == number of headers.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats each cell with to_string-like conversion.
  /// Doubles are printed with `precision` significant decimal digits.
  void add_row_values(const std::vector<double>& values, int precision = 3);

  std::size_t row_count() const { return rows_.size(); }

  /// Renders the table (header, separator, rows) to a string.
  std::string str() const;

  /// Streams the rendered table.
  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for table rows).
std::string fmt(double value, int precision = 3);

/// Formats an integer count.
std::string fmt(std::size_t value);
std::string fmt(long long value);

/// Concatenates strings, literals and chars into one string. Use it for
/// names like concat("x", std::to_string(i)) instead of chaining
/// operator+ onto a literal: at -O3, GCC 12 raises a false-positive
/// -Wrestrict on that chain once it is inlined.
template <class... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

/// Prints a section banner used between experiment sub-tables.
std::string banner(const std::string& title);

}  // namespace mhs
