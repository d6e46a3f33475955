#include "snc/timing_sim.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "util/thread_pool.h"

namespace qsnc::snc {

namespace {

// One (slot, stage) processing event in the schedule.
struct Event {
  double start_ns;
  int64_t slot;
  int64_t stage;

  bool operator>(const Event& other) const {
    return start_ns > other.start_ns;
  }
};

}  // namespace

TimingResult simulate_window(int64_t layers, int64_t window_slots,
                             const TimingConfig& config,
                             int64_t active_slots) {
  if (layers <= 0 || window_slots <= 0) {
    throw std::invalid_argument("simulate_window: non-positive extent");
  }
  // Event-driven sequencer: skipped (all-quiet) slots never enter the
  // schedule, so the grid shrinks to the active slots; the wave order of
  // the remaining slots is unchanged.
  if (active_slots >= 0) {
    window_slots = std::min(active_slots, window_slots);
  }

  TimingResult result;
  result.stage_busy_ns.assign(static_cast<size_t>(layers), 0.0);
  if (window_slots == 0) {
    // Nothing spiked: the window is pure setup/readout.
    result.period_ns = static_cast<double>(layers) * config.t_setup_ns;
    result.speed_mhz = 1e3 / result.period_ns;
    return result;
  }

  // stage_free[l]: earliest time stage l can accept new work.
  // slot_done[s]:  time slot s drained from the last stage.
  std::vector<double> stage_free(static_cast<size_t>(layers), 0.0);
  std::vector<double> slot_arrival(static_cast<size_t>(window_slots), 0.0);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  queue.push({0.0, 0, 0});

  double last_drain = 0.0;
  double prev_slot_drain = 0.0;
  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    ++result.events;

    const size_t stage = static_cast<size_t>(ev.stage);
    const double begin = std::max(ev.start_ns, stage_free[stage]);
    const double end = begin + config.t_prop_ns;
    stage_free[stage] = end;
    result.stage_busy_ns[stage] += config.t_prop_ns;

    if (ev.stage + 1 < layers) {
      // Wave moves to the next stage.
      queue.push({end, ev.slot, ev.stage + 1});
    } else {
      // Slot drained from the pipeline. Under the sequential-wave
      // discipline the successor slot is issued only now.
      last_drain = std::max(last_drain, end);
      prev_slot_drain = end;
      if (config.discipline == PipelineDiscipline::kSequentialWave &&
          ev.slot + 1 < window_slots) {
        queue.push({prev_slot_drain, ev.slot + 1, 0});
      }
    }

    // Under the pipelined discipline the successor slot enters stage 0 as
    // soon as stage 0 frees up.
    if (config.discipline == PipelineDiscipline::kSlotPipelined &&
        ev.stage == 0 && ev.slot + 1 < window_slots) {
      queue.push({end, ev.slot + 1, 0});
    }
  }

  result.period_ns =
      last_drain + static_cast<double>(layers) * config.t_setup_ns;
  result.speed_mhz = 1e3 / result.period_ns;
  double busy = 0.0;
  for (double b : result.stage_busy_ns) busy += b;
  result.utilization =
      busy / (result.period_ns * static_cast<double>(layers));
  return result;
}

std::vector<TimingResult> simulate_windows(
    const std::vector<WindowSpec>& specs) {
  std::vector<TimingResult> results(specs.size());
  util::parallel_for(
      0, static_cast<int64_t>(specs.size()), 1,
      [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
          const WindowSpec& spec = specs[static_cast<size_t>(s)];
          results[static_cast<size_t>(s)] =
              simulate_window(spec.layers, spec.window_slots, spec.config,
                              spec.active_slots);
        }
      });
  return results;
}

}  // namespace qsnc::snc
