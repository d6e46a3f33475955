#include "snc/crossbar.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qsnc::snc {

namespace {
size_t checked_cells(int64_t rows, int64_t cols) {
  if (rows <= 0 || cols <= 0) {
    throw std::invalid_argument("Crossbar: non-positive extent");
  }
  return static_cast<size_t>(rows * cols);
}
}  // namespace

Crossbar::Crossbar(int64_t rows, int64_t cols, const MemristorConfig& config)
    : rows_(rows),
      cols_(cols),
      config_(config),
      g_(checked_cells(rows, cols), g_min(config)) {
  // g_min < g_max keeps every clamp to the conductance range well formed.
  if (!(config.r_on_ohm > 0.0 && config.r_off_ohm > config.r_on_ohm)) {
    throw std::invalid_argument("Crossbar: need 0 < R_on < R_off");
  }
  if (config_.wire_resistance_ohm > 0.0) {
    geff_.resize(g_.size());
    for (int64_t r = 0; r < rows_; ++r) {
      for (int64_t c = 0; c < cols_; ++c) bake_effective(r, c);
    }
  }
}

void Crossbar::bake_effective(int64_t r, int64_t c) {
  if (geff_.empty()) return;
  geff_[static_cast<size_t>(index(r, c))] = effective_conductance(r, c);
}

void Crossbar::program_cell(int64_t r, int64_t c, int64_t level,
                            int64_t max_level, nn::Rng* rng) {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_) {
    throw std::out_of_range("Crossbar::program_cell: cell out of range");
  }
  // A stuck cell was pinned when its defect was installed: the fault is a
  // property of the cell, not the write.
  if (!defects_.empty() &&
      defects_[static_cast<size_t>(index(r, c))] != DefectKind::kNone) {
    return;
  }
  double g = level_conductance(level, max_level, config_);
  if (config_.variation_sigma > 0.0 && rng != nullptr) {
    g *= std::exp(rng->normal(0.0f,
                              static_cast<float>(config_.variation_sigma)));
    g = std::clamp(g, g_min(config_), g_max(config_));
  }
  g_[static_cast<size_t>(index(r, c))] = g;
  bake_effective(r, c);
}

void Crossbar::draw_defect_map(nn::Rng& rng) {
  defects_.assign(g_.size(), DefectKind::kNone);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t c = 0; c < cols_; ++c) {
      DefectKind kind = DefectKind::kNone;
      if (config_.stuck_off_rate > 0.0 &&
          rng.bernoulli(config_.stuck_off_rate)) {
        kind = DefectKind::kStuckOff;
      } else if (config_.stuck_on_rate > 0.0 &&
                 rng.bernoulli(config_.stuck_on_rate)) {
        kind = DefectKind::kStuckOn;
      }
      if (kind != DefectKind::kNone) set_defect(r, c, kind);
    }
  }
}

void Crossbar::set_defect(int64_t r, int64_t c, DefectKind kind) {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_) {
    throw std::out_of_range("Crossbar::set_defect: cell out of range");
  }
  if (defects_.empty()) defects_.assign(g_.size(), DefectKind::kNone);
  defects_[static_cast<size_t>(index(r, c))] = kind;
  if (kind == DefectKind::kStuckOff) {
    g_[static_cast<size_t>(index(r, c))] = g_min(config_);
  } else if (kind == DefectKind::kStuckOn) {
    g_[static_cast<size_t>(index(r, c))] = g_max(config_);
  }
  bake_effective(r, c);
}

double Crossbar::conductance(int64_t r, int64_t c) const {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_) {
    throw std::out_of_range("Crossbar::conductance: cell out of range");
  }
  return g_[static_cast<size_t>(index(r, c))];
}

double Crossbar::effective_conductance(int64_t r, int64_t c) const {
  const double g = g_[static_cast<size_t>(index(r, c))];
  if (config_.wire_resistance_ohm <= 0.0) return g;
  // First-order IR drop: (r + c + 2) wire segments in series with the cell.
  const double segments = static_cast<double>(r + c + 2);
  return g / (1.0 + g * config_.wire_resistance_ohm * segments);
}

void Crossbar::read_columns_into(const double* volts,
                                 double* currents) const {
  std::fill(currents, currents + cols_, 0.0);
  const double* panel = effective_panel();
  for (int64_t r = 0; r < rows_; ++r) {
    const double v = volts[static_cast<size_t>(r)];
    if (v == 0.0) continue;
    const double* row = panel + r * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      currents[static_cast<size_t>(c)] += v * row[c];
    }
  }
}

void Crossbar::read_columns_spiking_into(const uint8_t* spikes, double v_read,
                                         double* currents) const {
  std::fill(currents, currents + cols_, 0.0);
  const double* panel = effective_panel();
  for (int64_t r = 0; r < rows_; ++r) {
    if (spikes[static_cast<size_t>(r)] == 0) continue;
    const double* row = panel + r * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      currents[static_cast<size_t>(c)] += v_read * row[c];
    }
  }
}

std::vector<double> Crossbar::read_columns(
    const std::vector<double>& volts) const {
  if (static_cast<int64_t>(volts.size()) != rows_) {
    throw std::invalid_argument("Crossbar::read_columns: bad voltage count");
  }
  std::vector<double> currents(static_cast<size_t>(cols_));
  read_columns_into(volts.data(), currents.data());
  return currents;
}

std::vector<double> Crossbar::read_columns_spiking(
    const std::vector<uint8_t>& spikes, double v_read) const {
  if (static_cast<int64_t>(spikes.size()) != rows_) {
    throw std::invalid_argument(
        "Crossbar::read_columns_spiking: bad spike count");
  }
  std::vector<double> currents(static_cast<size_t>(cols_));
  read_columns_spiking_into(spikes.data(), v_read, currents.data());
  return currents;
}

DifferentialCrossbar::DifferentialCrossbar(int64_t rows, int64_t cols,
                                           const MemristorConfig& config,
                                           int64_t spare_cols)
    : rows_(rows),
      cols_(cols),
      spare_cols_(spare_cols),
      config_(config),
      plus_(rows, cols + spare_cols, config),
      minus_(rows, cols + spare_cols, config),
      panel_(checked_cells(rows, cols) * 2),
      col_map_(static_cast<size_t>(cols)) {
  if (spare_cols < 0) {
    throw std::invalid_argument("DifferentialCrossbar: negative spare_cols");
  }
  for (int64_t c = 0; c < cols_; ++c) col_map_[static_cast<size_t>(c)] = c;
  for (int64_t c = 0; c < cols_; ++c) sync_panel_column(c);
}

int64_t DifferentialCrossbar::physical_column(int64_t c) const {
  if (c < 0 || c >= cols_) {
    throw std::out_of_range("DifferentialCrossbar: logical column OOR");
  }
  return col_map_[static_cast<size_t>(c)];
}

void DifferentialCrossbar::sync_panel_column(int64_t c) {
  const int64_t pc = physical_column(c);
  for (int64_t r = 0; r < rows_; ++r) {
    panel_[static_cast<size_t>((r * cols_ + c) * 2)] =
        plus_.effective_conductance(r, pc);
    panel_[static_cast<size_t>((r * cols_ + c) * 2 + 1)] =
        minus_.effective_conductance(r, pc);
  }
}

int64_t DifferentialCrossbar::claim_spare() {
  if (spares_used_ >= spare_cols_) return -1;
  return cols_ + spares_used_++;
}

void DifferentialCrossbar::bind_column(int64_t c, int64_t phys_c) {
  if (c < 0 || c >= cols_) {
    throw std::out_of_range("DifferentialCrossbar: logical column OOR");
  }
  if (phys_c < 0 || phys_c >= cols_ + spare_cols_) {
    throw std::out_of_range("DifferentialCrossbar: physical column OOR");
  }
  col_map_[static_cast<size_t>(c)] = phys_c;
  sync_panel_column(c);
}

int64_t DifferentialCrossbar::remapped_cols() const {
  int64_t n = 0;
  for (int64_t c = 0; c < cols_; ++c) {
    if (col_map_[static_cast<size_t>(c)] != c) ++n;
  }
  return n;
}

void DifferentialCrossbar::program_cell(int64_t r, int64_t c,
                                        int64_t signed_level,
                                        int64_t max_level, nn::Rng* rng) {
  const int64_t magnitude = signed_level >= 0 ? signed_level : -signed_level;
  const int64_t pc = physical_column(c);
  if (signed_level >= 0) {
    plus_.program_cell(r, pc, magnitude, max_level, rng);
    minus_.program_cell(r, pc, 0, max_level, rng);
  } else {
    plus_.program_cell(r, pc, 0, max_level, rng);
    minus_.program_cell(r, pc, magnitude, max_level, rng);
  }
  panel_[static_cast<size_t>((r * cols_ + c) * 2)] =
      plus_.effective_conductance(r, pc);
  panel_[static_cast<size_t>((r * cols_ + c) * 2 + 1)] =
      minus_.effective_conductance(r, pc);
}

void DifferentialCrossbar::program_array_cell(bool minus_array, int64_t r,
                                              int64_t phys_c, int64_t level,
                                              int64_t max_level,
                                              nn::Rng* rng) {
  Crossbar& array = minus_array ? minus_ : plus_;
  array.program_cell(r, phys_c, level, max_level, rng);
}

double DifferentialCrossbar::array_effective(bool minus_array, int64_t r,
                                             int64_t phys_c) const {
  const Crossbar& array = minus_array ? minus_ : plus_;
  return array.effective_conductance(r, phys_c);
}

void DifferentialCrossbar::draw_defect_maps(nn::Rng& rng) {
  plus_.draw_defect_map(rng);
  minus_.draw_defect_map(rng);
  for (int64_t c = 0; c < cols_; ++c) sync_panel_column(c);
}

void DifferentialCrossbar::set_defect(int64_t r, int64_t c, bool minus_array,
                                      DefectKind kind) {
  const int64_t pc = physical_column(c);
  if (minus_array) {
    minus_.set_defect(r, pc, kind);
  } else {
    plus_.set_defect(r, pc, kind);
  }
  sync_panel_column(c);
}

std::vector<double> DifferentialCrossbar::read_columns_spiking(
    const std::vector<uint8_t>& spikes, double v_read) const {
  if (static_cast<int64_t>(spikes.size()) != rows_) {
    throw std::invalid_argument(
        "DifferentialCrossbar::read_columns_spiking: bad spike count");
  }
  // Reads through the logical panel so remapped columns see their spare;
  // per-array sums keep the ascending-row accumulation order.
  std::vector<double> ip(static_cast<size_t>(cols_), 0.0);
  std::vector<double> im(static_cast<size_t>(cols_), 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    if (spikes[static_cast<size_t>(r)] == 0) continue;
    const double* row = panel_.data() + r * 2 * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      ip[static_cast<size_t>(c)] += v_read * row[2 * c];
      im[static_cast<size_t>(c)] += v_read * row[2 * c + 1];
    }
  }
  for (size_t c = 0; c < ip.size(); ++c) ip[c] -= im[c];
  return ip;
}

int64_t DifferentialCrossbar::read_level(int64_t r, int64_t c,
                                         int64_t max_level) const {
  const int64_t pc = physical_column(c);
  const int64_t kp = nearest_level(plus_.conductance(r, pc), max_level,
                                   config_);
  const int64_t km = nearest_level(minus_.conductance(r, pc), max_level,
                                   config_);
  return kp - km;
}

}  // namespace qsnc::snc
