// Plain-text report emitters: aligned tables and ASCII histograms.
// Every bench binary renders the paper's tables/figures through these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qsnc::report {

/// Column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Renders with a header rule and 2-space column gaps.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimals.
std::string fmt(double v, int decimals = 2);

/// Formats an accuracy in percent ("98.14%").
std::string pct(double fraction, int decimals = 2);

/// ASCII histogram of `values` over [lo, hi] with `bins` bars; bar length
/// is normalized to `width` characters. Out-of-range values clamp to the
/// edge bins.
std::string ascii_histogram(const std::vector<float>& values, float lo,
                            float hi, int bins, int width = 50);

}  // namespace qsnc::report
