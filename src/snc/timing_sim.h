// Discrete-event timing simulator of the SNC's spike-window execution.
//
// The analytic cost model (cost_model.h) *asserts* the period formula
// period = T*L*t_prop + L*t_setup; this module derives the period by
// actually scheduling the (slot, stage) grid as a discrete-event system,
// which both cross-validates the formula (tests assert agreement) and lets
// us ask questions the closed form cannot, e.g. what slot-level pipelining
// would buy (ablation_pipelining).
//
// Disciplines:
//  * kSequentialWave — the paper's system: one spike wave fully drains
//    through all L stages before the next slot is issued (the IFC membrane
//    of layer l+1 must have settled on slot s before slot s+1 currents
//    arrive). Period = T*L*t_prop + L*t_setup.
//  * kSlotPipelined — hypothetical streaming IFCs: stage l processes slot
//    s while stage l+1 processes slot s-1. Period ~ (T+L-1)*t_prop +
//    L*t_setup, i.e. ~L-fold faster for long windows.
#pragma once

#include <cstdint>
#include <vector>

namespace qsnc::snc {

enum class PipelineDiscipline { kSequentialWave, kSlotPipelined };

struct TimingConfig {
  double t_prop_ns = 1.51;   // per-stage per-slot propagation
  double t_setup_ns = 5.35;  // per-stage per-window setup / readout
  PipelineDiscipline discipline = PipelineDiscipline::kSequentialWave;
};

struct TimingResult {
  double period_ns = 0.0;   // one inference window, start to last drain
  double speed_mhz = 0.0;   // 1e3 / period_ns
  int64_t events = 0;       // scheduled (slot, stage) events
  /// Per-stage busy time over the window (ns).
  std::vector<double> stage_busy_ns;
  /// Mean stage utilization: busy / period.
  double utilization = 0.0;
};

/// Simulates one spike window of `window_slots` slots through `layers`
/// pipeline stages under the given discipline.
///
/// `active_slots` models an event-driven sequencer: only slots in which at
/// least one input row actually spikes are issued through the pipeline;
/// empty slots are skipped for free (no propagation, no IFC settle). Pass
/// -1 (default) for a dense sequencer that issues every slot, or the
/// measured `SncStageStats::occupied_slots` fraction of the window to ask
/// what slot-skipping buys. Values are clamped to [0, window_slots]; an
/// all-quiet window (0) still pays the per-stage setup/readout time.
TimingResult simulate_window(int64_t layers, int64_t window_slots,
                             const TimingConfig& config = {},
                             int64_t active_slots = -1);

/// One independent window simulation in a batch (e.g. a per-crossbar or
/// per-model sweep point).
struct WindowSpec {
  int64_t layers = 1;
  int64_t window_slots = 1;
  int64_t active_slots = -1;  // -1: dense sequencer (all slots issued)
  TimingConfig config;
};

/// Simulates a batch of independent windows on the thread pool. A single
/// window's event schedule is inherently sequential (each event's start
/// time depends on its predecessors), but crossbars/windows are mutually
/// independent under the Eq-1 mapping, so sweeps parallelize across specs.
/// results[i] is bit-identical to simulate_window(specs[i]) run serially.
std::vector<TimingResult> simulate_windows(const std::vector<WindowSpec>& specs);

}  // namespace qsnc::snc
