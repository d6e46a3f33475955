// Memristor crossbar array: the analog vector-matrix multiply primitive.
//
// A crossbar of R rows x C columns computes, in one read cycle, the column
// currents  I_c = sum_r V_r * G[r][c]  for the word-line voltages V_r
// (simulated as one fused multiply-add per cell, rows ascending). A
// *signed* weight matrix uses two physical arrays (positive and negative
// cells); the differential column current is what the IFC integrates.
//
// Read-side performance model: inference never re-evaluates the wire
// model. Every program_cell() bakes the cell's *effective* conductance
// (IR-drop applied once) into a packed row-major panel, and the `_into`
// read APIs accumulate straight out of that panel into caller-owned
// buffers — no allocation, no per-access conductance math. The
// vector-returning reads remain as thin wrappers for tests and for the SNC
// reference oracle (SncSystem::infer_reference).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/rng.h"
#include "snc/memristor.h"

namespace qsnc::snc {

/// Static per-cell fabrication state. kStuckOff cells read g_min and
/// kStuckOn cells read g_max no matter what is programmed.
enum class DefectKind : uint8_t { kNone = 0, kStuckOff = 1, kStuckOn = 2 };

/// One physical conductance array.
class Crossbar {
 public:
  Crossbar(int64_t rows, int64_t cols, const MemristorConfig& config);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  const MemristorConfig& device() const { return config_; }

  /// Programs the cell at (r, c) to the given magnitude level of an N-bit
  /// grid. Pass `rng` to draw programming variation per the device config.
  ///
  /// Defect semantics: stuck cells are a static property of the array,
  /// installed by draw_defect_map()/set_defect(). A stuck cell stays
  /// pinned whatever is written and makes no draws, so retries against it
  /// see the same fault — the property closed-loop write-verify depends
  /// on. Without a map every cell is healthy.
  void program_cell(int64_t r, int64_t c, int64_t level, int64_t max_level,
                    nn::Rng* rng = nullptr);

  /// Draws the static defect map from the config rates, one bernoulli pair
  /// per cell in row-major order (deterministic given the rng state), and
  /// pins already-stuck cells to their defect conductance.
  void draw_defect_map(nn::Rng& rng);

  /// Test/faultsim hook: forces one cell's defect (installs an all-kNone
  /// map first when absent).
  void set_defect(int64_t r, int64_t c, DefectKind kind);

  double conductance(int64_t r, int64_t c) const;

  /// Conductance as seen through the wire-resistance model (equals
  /// conductance() when the config has ideal wires).
  double effective_conductance(int64_t r, int64_t c) const;

  /// Packed row-major [rows x cols] panel of effective conductances,
  /// baked at program time. With ideal wires this aliases the raw
  /// conductance array (no extra memory).
  const double* effective_panel() const {
    return geff_.empty() ? g_.data() : geff_.data();
  }

  /// Column currents accumulated into `currents` (size cols(), caller
  /// allocated; overwritten). Rows with zero voltage draw no current and
  /// are skipped; the rest add V * G in ascending row order, one fused
  /// multiply-add each (nn::crossbar_mac) — the arithmetic every other
  /// read path reproduces.
  void read_columns_into(const double* volts, double* currents) const;

  /// Spiking-read variant: rows with spike[r] != 0 are driven at `v_read`,
  /// the rest are grounded.
  void read_columns_spiking_into(const uint8_t* spikes, double v_read,
                                 double* currents) const;

  /// Column currents (amps) for word-line voltages `volts` (size rows()).
  /// Allocating wrapper over read_columns_into.
  std::vector<double> read_columns(const std::vector<double>& volts) const;

  /// Column currents when word lines carry binary spikes at `v_read`:
  /// allocating wrapper over read_columns_spiking_into.
  std::vector<double> read_columns_spiking(const std::vector<uint8_t>& spikes,
                                           double v_read) const;

 private:
  int64_t index(int64_t r, int64_t c) const { return r * cols_ + c; }
  void bake_effective(int64_t r, int64_t c);

  int64_t rows_;
  int64_t cols_;
  MemristorConfig config_;
  std::vector<double> g_;     // row-major conductances
  std::vector<double> geff_;  // wire-model panel; empty when wires ideal
  std::vector<DefectKind> defects_;  // static map; empty = no defects
};

/// A differential pair of crossbars realizing a signed weight block.
/// Weight levels k in [-max_level, +max_level]: positive k programs the
/// plus array, negative k the minus array; the other cell stays at level 0
/// (g_min leakage), and the differential current cancels the common leak.
///
/// Fault-aware remapping: the pair may reserve `spare_cols` extra physical
/// columns. Logical columns route to physical columns through an output
/// mux (col_map); rebinding a faulty logical column onto a spare only
/// rewrites panel entries, so the inference hot path (the SNC runner's
/// kernels over the logical panel) is untouched by remapping.
class DifferentialCrossbar {
 public:
  DifferentialCrossbar(int64_t rows, int64_t cols,
                       const MemristorConfig& config, int64_t spare_cols = 0);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t spare_cols() const { return spare_cols_; }
  int64_t spare_cols_left() const { return spare_cols_ - spares_used_; }
  const MemristorConfig& device() const { return config_; }

  void program_cell(int64_t r, int64_t c, int64_t signed_level,
                    int64_t max_level, nn::Rng* rng = nullptr);

  /// Programs one array's cell at a *physical* column without touching the
  /// logical panel (used by the write-verify controller to retry a single
  /// deviant cell or pre-program an unbound spare). Call
  /// sync_panel_column() when the owning logical column is bound.
  void program_array_cell(bool minus_array, int64_t r, int64_t phys_c,
                          int64_t level, int64_t max_level,
                          nn::Rng* rng = nullptr);

  /// Effective conductance of one array's cell at a physical column — the
  /// verify read of the write-verify loop.
  double array_effective(bool minus_array, int64_t r, int64_t phys_c) const;

  /// Draws static defect maps for both arrays (plus first, then minus).
  void draw_defect_maps(nn::Rng& rng);

  /// Test/faultsim hook: forces the defect of one array's cell at the
  /// physical column currently backing logical column c.
  void set_defect(int64_t r, int64_t c, bool minus_array, DefectKind kind);

  /// Physical column currently backing logical column c.
  int64_t physical_column(int64_t c) const;

  /// Claims the next unused spare physical column (ascending order);
  /// returns -1 when the budget is exhausted. The claim is permanent even
  /// if the caller decides not to bind it (a trial-programmed spare has
  /// been written and is no longer pristine).
  int64_t claim_spare();

  /// Routes logical column c to physical column phys_c and refreshes the
  /// panel entries from it.
  void bind_column(int64_t c, int64_t phys_c);

  /// Number of logical columns not on their home physical column.
  int64_t remapped_cols() const;

  /// Re-reads both panel entries of logical column c (all rows) from its
  /// mapped physical column.
  void sync_panel_column(int64_t c);

  /// Packed interleaved effective-conductance panel [rows x 2*cols]: the
  /// plus cell of logical column c at 2c, the minus cell at 2c+1 — a copy
  /// of the two arrays' effective conductances at physical_column(c), kept
  /// in sync by every write and bind. One cache-friendly row pass
  /// feeds both accumulators while preserving the per-array accumulation
  /// order (plus and minus sums each see rows in ascending order, exactly
  /// like separate reads of plus()/minus()).
  const double* packed_panel() const { return panel_.data(); }

  /// Differential column currents I_plus - I_minus for binary spikes.
  std::vector<double> read_columns_spiking(const std::vector<uint8_t>& spikes,
                                           double v_read) const;

  /// Signed level read back from the pair (ideal devices round-trip
  /// exactly; with variation this is the nearest level).
  int64_t read_level(int64_t r, int64_t c, int64_t max_level) const;

  const Crossbar& plus() const { return plus_; }
  const Crossbar& minus() const { return minus_; }

 private:
  int64_t rows_;
  int64_t cols_;        // logical columns (panel width / 2)
  int64_t spare_cols_;  // extra physical columns reserved for remapping
  int64_t spares_used_ = 0;
  MemristorConfig config_;
  Crossbar plus_;
  Crossbar minus_;
  std::vector<double> panel_;    // interleaved plus/minus effective panel
  std::vector<int64_t> col_map_;  // logical -> physical column
};

}  // namespace qsnc::snc
