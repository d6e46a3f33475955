#include "snc/programming.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "snc/cost_model.h"

namespace qsnc::snc {

double pulses_per_cell(int weight_bits, const ProgrammingParams& params) {
  if (weight_bits < 1 || weight_bits > 16) {
    throw std::invalid_argument("pulses_per_cell: bits out of range");
  }
  const int per_device = std::min(weight_bits, params.device_bits);
  return params.pulses_base *
         std::ldexp(1.0, per_device - 1);  // pulses_base * 2^(bits-1)
}

ProgrammingCost evaluate_programming(const ModelMapping& mapping,
                                     int weight_bits,
                                     const ProgrammingParams& params) {
  if (mapping.layers.empty()) {
    throw std::invalid_argument("evaluate_programming: empty mapping");
  }
  const int slices = weight_slices(weight_bits, params.device_bits);
  const double pulses = pulses_per_cell(weight_bits, params);

  ProgrammingCost cost;
  double serial_time_ns = 0.0;
  for (const LayerMapping& l : mapping.layers) {
    // Differential pair: two physical cells per logical weight, per slice.
    const int64_t layer_cells = 2 * l.rows * l.cols * slices;
    cost.cells += layer_cells;

    // Rows program in parallel groups; columns within a row are written
    // together by the bit-line drivers.
    const int64_t row_groups =
        (l.rows + params.parallel_rows - 1) / params.parallel_rows;
    serial_time_ns += static_cast<double>(row_groups) * 2.0 *
                      static_cast<double>(slices) * pulses *
                      (params.t_pulse_ns + params.t_verify_ns);
  }
  cost.total_pulses = static_cast<double>(cost.cells) * pulses;
  cost.time_ms = serial_time_ns * 1e-6;
  cost.energy_uj = cost.total_pulses * params.e_pulse_pj * 1e-6;
  return cost;
}

void FaultReport::add(const FaultReport& other) {
  cells += other.cells;
  write_retries += other.write_retries;
  faults_detected += other.faults_detected;
  faults_compensated += other.faults_compensated;
  residual_faults += other.residual_faults;
  remapped_cols += other.remapped_cols;
  spare_cols_left += other.spare_cols_left;
}

namespace {

// Write-verify acceptance window, in differential levels.
constexpr double kToleranceLevels = 0.45;
// Extra program attempts per array cell after the first write.
constexpr int kMaxRetries = 3;
// Residual faults that send a column to the remap pass.
constexpr int64_t kRemapFaultThreshold = 1;

/// Differential level the pair at (r, phys_c) actually realizes, measured
/// through the effective (wire-model) conductance — the verify read.
double achieved_level(const DifferentialCrossbar& xbar, int64_t r,
                      int64_t phys_c, int64_t max_level) {
  const double p = fractional_level(xbar.array_effective(false, r, phys_c),
                                    max_level, xbar.device());
  const double m = fractional_level(xbar.array_effective(true, r, phys_c),
                                    max_level, xbar.device());
  return p - m;
}

/// Write-verify loop for one differential pair at a physical column.
/// Residual (still off-target after compensation) is reported through
/// `col_residual`; the caller folds per-column residuals into the report
/// after any remapping so abandoned columns stop counting.
void program_pair_verified(DifferentialCrossbar& xbar, int64_t r,
                           int64_t phys_c, int64_t k, int64_t max_level,
                           nn::Rng& rng, FaultReport& report,
                           int64_t* col_residual) {
  const int64_t plus_target = k >= 0 ? k : 0;
  const int64_t minus_target = k >= 0 ? 0 : -k;
  ++report.cells;
  for (int attempt = 0;; ++attempt) {
    xbar.program_array_cell(false, r, phys_c, plus_target, max_level, &rng);
    xbar.program_array_cell(true, r, phys_c, minus_target, max_level, &rng);
    const double err =
        achieved_level(xbar, r, phys_c, max_level) - static_cast<double>(k);
    if (std::fabs(err) <= kToleranceLevels) return;
    if (attempt >= kMaxRetries) break;
    ++report.write_retries;
  }
  ++report.faults_detected;

  // Differential compensation: re-aim the partner of the more deviant
  // array so the *pair* lands on k even though one cell is pinned. A plus
  // cell stuck at level p is cancelled by minus = clamp(round(p - k));
  // the clamp is what leaves a (small) residual when round(p - k) falls
  // off the grid.
  const double p = fractional_level(xbar.array_effective(false, r, phys_c),
                                    max_level, xbar.device());
  const double m = fractional_level(xbar.array_effective(true, r, phys_c),
                                    max_level, xbar.device());
  const bool plus_deviant = std::fabs(p - static_cast<double>(plus_target)) >=
                            std::fabs(m - static_cast<double>(minus_target));
  const bool tune_minus = plus_deviant;
  const double real_target = tune_minus ? p - static_cast<double>(k)
                                        : m + static_cast<double>(k);
  const int64_t target = std::clamp<int64_t>(
      std::llround(real_target), 0, max_level);
  for (int attempt = 0;; ++attempt) {
    xbar.program_array_cell(tune_minus, r, phys_c, target, max_level, &rng);
    const double err =
        achieved_level(xbar, r, phys_c, max_level) - static_cast<double>(k);
    if (std::fabs(err) <= kToleranceLevels) {
      ++report.faults_compensated;
      return;
    }
    if (attempt >= kMaxRetries) break;
    ++report.write_retries;
  }
  if (col_residual != nullptr) ++*col_residual;
}

/// Programs every pair of one *physical* column (levels indexed by row).
int64_t program_physical_column(DifferentialCrossbar& xbar, int64_t phys_c,
                                const int64_t* levels, int64_t max_level,
                                nn::Rng& rng, FaultReport& report) {
  int64_t residual = 0;
  for (int64_t r = 0; r < xbar.rows(); ++r) {
    program_pair_verified(xbar, r, phys_c, levels[r], max_level, rng, report,
                          &residual);
  }
  return residual;
}

}  // namespace

FaultReport program_verified(DifferentialCrossbar& xbar,
                             const std::vector<int64_t>& levels,
                             int64_t max_level, nn::Rng& rng) {
  const int64_t rows = xbar.rows();
  const int64_t cols = xbar.cols();
  if (static_cast<int64_t>(levels.size()) != rows * cols) {
    throw std::invalid_argument("program_verified: bad level matrix size");
  }
  FaultReport report;
  std::vector<int64_t> col_residual(static_cast<size_t>(cols), 0);
  for (int64_t c = 0; c < cols; ++c) {
    col_residual[static_cast<size_t>(c)] = program_physical_column(
        xbar, xbar.physical_column(c), levels.data() + c * rows, max_level,
        rng, report);
    xbar.sync_panel_column(c);
  }

  // Remap pass: worst columns claim spares first (stable sort keeps the
  // tie-break on column index deterministic). A trial-programmed spare is
  // only bound when it is strictly cleaner than the home column.
  if (xbar.spare_cols() > 0) {
    std::vector<int64_t> order;
    for (int64_t c = 0; c < cols; ++c) {
      if (col_residual[static_cast<size_t>(c)] >= kRemapFaultThreshold) {
        order.push_back(c);
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](int64_t a, int64_t b) {
                       return col_residual[static_cast<size_t>(a)] >
                              col_residual[static_cast<size_t>(b)];
                     });
    for (const int64_t c : order) {
      const int64_t spare = xbar.claim_spare();
      if (spare < 0) break;
      const int64_t spare_residual = program_physical_column(
          xbar, spare, levels.data() + c * rows, max_level, rng, report);
      if (spare_residual < col_residual[static_cast<size_t>(c)]) {
        xbar.bind_column(c, spare);
        col_residual[static_cast<size_t>(c)] = spare_residual;
        ++report.remapped_cols;
      }
    }
  }

  report.residual_faults = std::accumulate(col_residual.begin(),
                                           col_residual.end(), int64_t{0});
  report.spare_cols_left = xbar.spare_cols_left();
  return report;
}

double worst_level_error(const DifferentialCrossbar& xbar,
                         const std::vector<int64_t>& levels,
                         int64_t max_level) {
  const int64_t rows = xbar.rows();
  const int64_t cols = xbar.cols();
  if (static_cast<int64_t>(levels.size()) != rows * cols) {
    throw std::invalid_argument("worst_level_error: bad level matrix size");
  }
  double worst = 0.0;
  for (int64_t c = 0; c < cols; ++c) {
    const int64_t pc = xbar.physical_column(c);
    for (int64_t r = 0; r < rows; ++r) {
      const double err =
          achieved_level(xbar, r, pc, max_level) -
          static_cast<double>(levels[static_cast<size_t>(c * rows + r)]);
      worst = std::max(worst, std::fabs(err));
    }
  }
  return worst;
}

}  // namespace qsnc::snc
