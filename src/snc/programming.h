// Crossbar programming (write) cost model.
//
// The paper's motivation for <= 4-bit devices (Sec 1): although memristors
// can afford 6-bit conductance levels (HP Labs, ref [16]), "the heavy
// programming cost in speed and circuit design are not acceptable".
// Programming a cell to one of 2^N levels uses write-verify iterations:
// each pulse nudges the conductance, a read verifies, and the loop repeats
// until the level tolerance is met. Empirically the iteration count grows
// with level resolution — tighter tolerance windows take more pulses — so
// per-cell cost scales superlinearly with N.
//
// Model:
//   pulses(cell)   = pulses_base * 2^(N - 1) / tolerance_factor
//   (expected write-verify pulses to land in a 1/2^N-wide window from a
//   random starting state; the 2^(N-1) factor is the standard
//   binary-search-free pessimistic bound used in programming studies)
//   time(model)    = cells * pulses * (t_pulse + t_verify)   (serial/row)
//   energy(model)  = cells * pulses * e_pulse
//
// Programming happens once per deployment, but matters for reconfigurable
// systems and for the 8-bit baseline's 2x cell count.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/rng.h"
#include "snc/crossbar.h"
#include "snc/mapper.h"

namespace qsnc::snc {

struct ProgrammingParams {
  double pulses_base = 2.0;    // pulses for a 1-bit cell
  double t_pulse_ns = 50.0;    // one SET/RESET pulse
  double t_verify_ns = 20.0;   // one verify read
  double e_pulse_pj = 8.0;     // energy per pulse
  /// Rows programmed in parallel per crossbar (write drivers per array).
  int64_t parallel_rows = 1;
  int device_bits = 4;         // native device precision per slice
};

struct ProgrammingCost {
  double total_pulses = 0.0;
  double time_ms = 0.0;
  double energy_uj = 0.0;
  int64_t cells = 0;  // differential cells programmed (2 per weight)
};

/// Expected write-verify pulses per cell at N-bit target precision.
double pulses_per_cell(int weight_bits, const ProgrammingParams& params);

/// Programming cost of deploying a mapped model at `weight_bits` weights
/// (bit-sliced over `params.device_bits` devices like the run-time cost
/// model).
ProgrammingCost evaluate_programming(const ModelMapping& mapping,
                                     int weight_bits,
                                     const ProgrammingParams& params = {});

// ---------------------------------------------------------------------------
// Closed-loop write-verify programming.
//
// The analytic model above prices the *expected* write-verify loop; the
// controller below actually runs it against a DifferentialCrossbar: program,
// read back the effective conductance, retry while the differential level
// error exceeds the tolerance. Cells that exhaust the retry budget are
// faults; the controller first tries *differential compensation* (reprogram
// the healthy partner cell so the pair's difference still lands on the
// target level — a stuck-on plus cell at level p is cancelled by minus at
// clamp(round(p) - k)), and columns still holding a residual fault are
// remapped onto spare physical columns. The tolerance (0.45 levels: reads
// back to the right level with margin), the retry budget (3 extra attempts
// per array cell) and the remap threshold (1 residual fault) are fixed.

/// Counters from one programming pass (aggregate with add()). residual
/// faults describe the final state; the other counters describe activity,
/// so a remapped column's pre-remap faults stay counted as detected.
struct FaultReport {
  int64_t cells = 0;             // differential pairs programmed
  int64_t write_retries = 0;     // extra program attempts beyond the first
  int64_t faults_detected = 0;   // pairs that exhausted the retry budget
  int64_t faults_compensated = 0;  // ...recovered by partner compensation
  int64_t residual_faults = 0;   // pairs still off-target after recovery
  int64_t remapped_cols = 0;     // logical columns rerouted onto spares
  int64_t spare_cols_left = 0;   // unclaimed spares after the pass

  void add(const FaultReport& other);
};

/// Verified programming of a full signed level matrix
/// (levels[col * rows + r], the SncSystem weight layout), followed by a
/// remap pass: columns with a residual fault are trial-programmed onto
/// spares (worst column first) and rebound when the spare is cleaner.
/// Deterministic given the rng state.
FaultReport program_verified(DifferentialCrossbar& xbar,
                             const std::vector<int64_t>& levels,
                             int64_t max_level, nn::Rng& rng);

/// Worst |achieved - target| differential level error over the logical
/// cells of `xbar` (levels[col * rows + r]), read through the effective
/// conductances like the write-verify loop's verify read.
double worst_level_error(const DifferentialCrossbar& xbar,
                         const std::vector<int64_t>& levels,
                         int64_t max_level);

}  // namespace qsnc::snc
