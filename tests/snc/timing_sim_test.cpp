#include "snc/timing_sim.h"

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "snc/cost_model.h"
#include "snc/mapper.h"
#include "snc/spike.h"

namespace qsnc::snc {
namespace {

TEST(TimingSimTest, SequentialWaveMatchesClosedForm) {
  // period = T*L*t_prop + L*t_setup.
  TimingConfig cfg;
  for (int64_t layers : {1, 4, 8, 18}) {
    for (int64_t slots : {1, 7, 15, 255}) {
      const TimingResult r = simulate_window(layers, slots, cfg);
      const double expected = static_cast<double>(slots * layers) *
                                  cfg.t_prop_ns +
                              static_cast<double>(layers) * cfg.t_setup_ns;
      EXPECT_NEAR(r.period_ns, expected, 1e-6)
          << "L=" << layers << " T=" << slots;
    }
  }
}

TEST(TimingSimTest, AgreesWithAnalyticCostModel) {
  // The DES and evaluate_cost must produce the same speed for every model
  // in the zoo — the cross-validation this module exists for.
  nn::Rng rng(1);
  nn::Network lenet = models::make_lenet(rng);
  const ModelMapping m = map_network(lenet, "Lenet", {1, 28, 28}, 32);
  const CostParams params;
  for (int bits : {3, 4, 8}) {
    const SystemCost analytic = evaluate_cost(m, bits, 4, params);
    TimingConfig cfg;
    cfg.t_prop_ns = params.t_prop_ns;
    cfg.t_setup_ns = params.t_setup_ns;
    const TimingResult sim =
        simulate_window(m.layer_count(), window_slots(bits), cfg);
    EXPECT_NEAR(sim.speed_mhz, analytic.speed_mhz,
                analytic.speed_mhz * 1e-6)
        << "bits " << bits;
  }
}

TEST(TimingSimTest, PipelinedMatchesClosedForm) {
  // period ~ (T + L - 1)*t_prop + L*t_setup.
  TimingConfig cfg;
  cfg.discipline = PipelineDiscipline::kSlotPipelined;
  for (int64_t layers : {1, 4, 18}) {
    for (int64_t slots : {1, 15, 255}) {
      const TimingResult r = simulate_window(layers, slots, cfg);
      const double expected =
          static_cast<double>(slots + layers - 1) * cfg.t_prop_ns +
          static_cast<double>(layers) * cfg.t_setup_ns;
      EXPECT_NEAR(r.period_ns, expected, 1e-6)
          << "L=" << layers << " T=" << slots;
    }
  }
}

TEST(TimingSimTest, PipeliningHelpsLongWindows) {
  TimingConfig seq;
  TimingConfig pipe;
  pipe.discipline = PipelineDiscipline::kSlotPipelined;
  const TimingResult s = simulate_window(8, 255, seq);
  const TimingResult p = simulate_window(8, 255, pipe);
  // ~L-fold speedup for T >> L.
  EXPECT_GT(p.speed_mhz / s.speed_mhz, 6.0);
}

TEST(TimingSimTest, EventCountIsSlotsTimesStages) {
  const TimingResult r = simulate_window(5, 7, {});
  EXPECT_EQ(r.events, 35);
}

TEST(TimingSimTest, UtilizationHigherWhenPipelined) {
  TimingConfig seq;
  TimingConfig pipe;
  pipe.discipline = PipelineDiscipline::kSlotPipelined;
  EXPECT_GT(simulate_window(8, 63, pipe).utilization,
            simulate_window(8, 63, seq).utilization * 4.0);
}

TEST(TimingSimTest, BusyTimeIsExactPerStage) {
  const TimingConfig cfg;
  const TimingResult r = simulate_window(3, 15, cfg);
  ASSERT_EQ(r.stage_busy_ns.size(), 3u);
  for (double b : r.stage_busy_ns) {
    EXPECT_NEAR(b, 15 * cfg.t_prop_ns, 1e-9);
  }
}

TEST(TimingSimTest, InvalidArgsThrow) {
  EXPECT_THROW(simulate_window(0, 15, {}), std::invalid_argument);
  EXPECT_THROW(simulate_window(4, 0, {}), std::invalid_argument);
}

TEST(TimingSimTest, ActiveSlotsDefaultIsDense) {
  const TimingResult dense = simulate_window(5, 15, {});
  const TimingResult all_active = simulate_window(5, 15, {}, 15);
  EXPECT_EQ(dense.events, all_active.events);
  EXPECT_DOUBLE_EQ(dense.period_ns, all_active.period_ns);
}

TEST(TimingSimTest, ActiveSlotsShrinkTheWindow) {
  // An event-driven sequencer issuing only 5 of 15 slots behaves exactly
  // like a dense 5-slot window: skipped slots cost nothing.
  const TimingResult sparse = simulate_window(5, 15, {}, 5);
  const TimingResult small = simulate_window(5, 5, {});
  EXPECT_EQ(sparse.events, small.events);
  EXPECT_DOUBLE_EQ(sparse.period_ns, small.period_ns);
  EXPECT_LT(sparse.period_ns, simulate_window(5, 15, {}).period_ns);
}

TEST(TimingSimTest, ActiveSlotsClampToWindow) {
  const TimingResult dense = simulate_window(3, 7, {});
  const TimingResult over = simulate_window(3, 7, {}, 100);
  EXPECT_DOUBLE_EQ(dense.period_ns, over.period_ns);
}

TEST(TimingSimTest, AllQuietWindowIsPureSetup) {
  const TimingConfig cfg;
  const TimingResult r = simulate_window(4, 15, cfg, 0);
  EXPECT_EQ(r.events, 0);
  EXPECT_DOUBLE_EQ(r.period_ns, 4 * cfg.t_setup_ns);
  EXPECT_GT(r.speed_mhz, 0.0);
}

TEST(TimingSimTest, BatchHonorsActiveSlots) {
  std::vector<WindowSpec> specs(3);
  specs[0] = {5, 15, -1, {}};
  specs[1] = {5, 15, 5, {}};
  specs[2] = {5, 15, 0, {}};
  const std::vector<TimingResult> results = simulate_windows(specs);
  EXPECT_DOUBLE_EQ(results[0].period_ns, simulate_window(5, 15, {}).period_ns);
  EXPECT_DOUBLE_EQ(results[1].period_ns,
                   simulate_window(5, 15, {}, 5).period_ns);
  EXPECT_DOUBLE_EQ(results[2].period_ns,
                   simulate_window(5, 15, {}, 0).period_ns);
}

}  // namespace
}  // namespace qsnc::snc
