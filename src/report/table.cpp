#include "report/table.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qsnc::report {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table::add_row: column count mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << row[c] << std::string(widths[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  emit_row(header_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double v, int decimals) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << v;
  return os.str();
}

std::string pct(double fraction, int decimals) {
  return fmt(fraction * 100.0, decimals) + "%";
}

std::string ascii_histogram(const std::vector<float>& values, float lo,
                            float hi, int bins, int width) {
  if (bins <= 0 || hi <= lo) {
    throw std::invalid_argument("ascii_histogram: bad range/bins");
  }
  std::vector<int64_t> counts(static_cast<size_t>(bins), 0);
  const float inv_step = static_cast<float>(bins) / (hi - lo);
  for (float v : values) {
    int b = static_cast<int>((v - lo) * inv_step);
    b = std::clamp(b, 0, bins - 1);
    ++counts[static_cast<size_t>(b)];
  }
  const int64_t peak = *std::max_element(counts.begin(), counts.end());

  std::ostringstream os;
  for (int b = 0; b < bins; ++b) {
    const float left = lo + (hi - lo) * static_cast<float>(b) /
                                static_cast<float>(bins);
    const int64_t count = counts[static_cast<size_t>(b)];
    const int bar = peak > 0 ? static_cast<int>(std::llround(
                                   static_cast<double>(count) * width /
                                   static_cast<double>(peak)))
                             : 0;
    os.setf(std::ios::fixed);
    os.precision(2);
    os << '[' << left << ") " << std::string(static_cast<size_t>(bar), '#')
       << ' ' << count << '\n';
  }
  return os.str();
}

}  // namespace qsnc::report
