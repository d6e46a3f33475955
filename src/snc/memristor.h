// Memristor device model.
//
// A memristor cell stores one synaptic magnitude as a programmable
// conductance in [1/R_off, 1/R_on]. Following the paper's deployment
// substrate (C. Liu et al., DAC'15 [12]) the resistance range is
// [50 kOhm, 1 MOhm]; an N-bit weight grid maps its magnitude levels
// 0..2^{N-1} linearly onto that conductance range. Signed weights use a
// differential pair of cells (positive and negative bit lines).
//
// Device variation: real devices land near, not on, the programmed level.
// Crossbar::program_cell optionally draws a lognormal multiplicative error,
// which the defect-injection extension benches use to study
// accuracy-vs-variation.
#pragma once

#include <cstdint>

namespace qsnc::snc {

struct MemristorConfig {
  double r_on_ohm = 50e3;    // lowest resistance (highest conductance)
  double r_off_ohm = 1e6;    // highest resistance (lowest conductance)
  double variation_sigma = 0.0;  // lognormal sigma of programming error

  // Fabrication defects (cf. C. Liu et al., DAC'17 — the paper's ref [16]):
  // a stuck-at-off cell reads g_min regardless of programming, a
  // stuck-at-on cell reads g_max. Rates are per-cell probabilities drawn
  // once at programming time (the defect map is static per array).
  double stuck_off_rate = 0.0;
  double stuck_on_rate = 0.0;

  // First-order IR-drop model: each word/bit line segment adds
  // `wire_resistance_ohm` in series, so the cell at (r, c) sees an
  // effective conductance g / (1 + g * R_wire * (r + c + 2)). Zero
  // disables the effect (ideal wires). Larger crossbars suffer more —
  // one reason the paper's substrate stops at 32x32 (Eq 1).
  double wire_resistance_ohm = 0.0;
};

/// Conductance bounds implied by a config (siemens).
double g_min(const MemristorConfig& config);
double g_max(const MemristorConfig& config);

/// The ideal (variation-free) conductance of magnitude level k of an N-bit
/// grid (k in [0, 2^{N-1}]): level 0 maps to g_min (the off state still
/// leaks), the top level to g_max.
double level_conductance(int64_t level, int64_t max_level,
                         const MemristorConfig& config);

/// Inverse mapping: the magnitude level whose ideal conductance is nearest
/// to `g` (used to read back weights from a programmed array).
int64_t nearest_level(double g, int64_t max_level,
                      const MemristorConfig& config);

/// Real-valued inverse mapping: the fractional grid level whose ideal
/// conductance equals `g`, clamped to [0, max_level]. The write-verify
/// controller measures programming error in these units (a cell within
/// +/-0.5 of its target level reads back correctly).
double fractional_level(double g, int64_t max_level,
                        const MemristorConfig& config);

}  // namespace qsnc::snc
