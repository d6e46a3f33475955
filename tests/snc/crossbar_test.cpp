#include "snc/crossbar.h"

#include <gtest/gtest.h>

namespace qsnc::snc {
namespace {

TEST(CrossbarTest, PowersUpAtMinimumConductance) {
  MemristorConfig cfg;
  Crossbar xb(4, 4, cfg);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(xb.conductance(r, c), g_min(cfg));
    }
  }
}

TEST(CrossbarTest, BadGeometryThrows) {
  MemristorConfig cfg;
  EXPECT_THROW(Crossbar(0, 4, cfg), std::invalid_argument);
  EXPECT_THROW(Crossbar(4, -1, cfg), std::invalid_argument);
}

TEST(CrossbarTest, InvalidConfigThrows) {
  MemristorConfig cfg;
  cfg.r_on_ohm = 0;
  EXPECT_THROW(Crossbar(2, 2, cfg), std::invalid_argument);
  cfg.r_on_ohm = 2e6;  // R_on > R_off
  EXPECT_THROW(Crossbar(2, 2, cfg), std::invalid_argument);
  cfg.r_on_ohm = cfg.r_off_ohm;  // empty conductance range
  EXPECT_THROW(Crossbar(2, 2, cfg), std::invalid_argument);
  EXPECT_THROW(DifferentialCrossbar(2, 2, cfg), std::invalid_argument);
}

TEST(CrossbarTest, VariationStaysWithinPhysicalBounds) {
  MemristorConfig cfg;
  cfg.variation_sigma = 0.5;  // huge variation
  Crossbar xb(1, 1, cfg);
  nn::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    xb.program_cell(0, 0, 4, 8, &rng);
    EXPECT_GE(xb.conductance(0, 0), g_min(cfg));
    EXPECT_LE(xb.conductance(0, 0), g_max(cfg));
  }
}

TEST(CrossbarTest, VariationIsZeroMeanIsh) {
  MemristorConfig cfg;
  cfg.variation_sigma = 0.05;
  Crossbar xb(1, 1, cfg);
  nn::Rng rng(2);
  const double ideal = level_conductance(4, 8, cfg);
  double acc = 0.0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    xb.program_cell(0, 0, 4, 8, &rng);
    acc += xb.conductance(0, 0);
  }
  EXPECT_NEAR(acc / kN, ideal, ideal * 0.02);
}

TEST(CrossbarTest, OutOfRangeCellThrows) {
  MemristorConfig cfg;
  Crossbar xb(2, 2, cfg);
  EXPECT_THROW(xb.program_cell(2, 0, 1, 8), std::out_of_range);
  EXPECT_THROW(xb.conductance(0, 5), std::out_of_range);
}

TEST(CrossbarTest, ColumnCurrentIsDotProduct) {
  MemristorConfig cfg;
  Crossbar xb(3, 2, cfg);
  xb.program_cell(0, 0, 8, 8);  // g_max
  xb.program_cell(1, 0, 4, 8);  // midpoint
  xb.program_cell(2, 1, 8, 8);
  const std::vector<double> volts{1.0, 2.0, 0.5};
  const std::vector<double> currents = xb.read_columns(volts);
  const double g_mid = (g_min(cfg) + g_max(cfg)) / 2.0;
  EXPECT_NEAR(currents[0],
              1.0 * g_max(cfg) + 2.0 * g_mid + 0.5 * g_min(cfg), 1e-12);
  EXPECT_NEAR(currents[1],
              1.0 * g_min(cfg) + 2.0 * g_min(cfg) + 0.5 * g_max(cfg), 1e-12);
}

TEST(CrossbarTest, SpikingReadDrivesOnlyFiringRows) {
  MemristorConfig cfg;
  Crossbar xb(3, 1, cfg);
  xb.program_cell(0, 0, 8, 8);
  xb.program_cell(1, 0, 8, 8);
  xb.program_cell(2, 0, 8, 8);
  const std::vector<uint8_t> spikes{1, 0, 1};
  const std::vector<double> currents = xb.read_columns_spiking(spikes, 1.0);
  EXPECT_NEAR(currents[0], 2.0 * g_max(cfg), 1e-12);
}

TEST(CrossbarTest, WrongInputSizeThrows) {
  MemristorConfig cfg;
  Crossbar xb(3, 1, cfg);
  EXPECT_THROW(xb.read_columns({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(xb.read_columns_spiking({1, 1}, 1.0), std::invalid_argument);
}

TEST(DifferentialCrossbarTest, SignedLevelsRoundTrip) {
  MemristorConfig cfg;
  DifferentialCrossbar xb(4, 4, cfg);
  for (int64_t k = -8; k <= 8; ++k) {
    xb.program_cell(0, 0, k, 8);
    EXPECT_EQ(xb.read_level(0, 0, 8), k) << "level " << k;
  }
}

TEST(DifferentialCrossbarTest, DifferentialCurrentCancelsLeak) {
  // A zero weight (both cells at g_min) contributes zero differential
  // current even though each array leaks.
  MemristorConfig cfg;
  DifferentialCrossbar xb(2, 1, cfg);
  xb.program_cell(0, 0, 0, 8);
  xb.program_cell(1, 0, 0, 8);
  const std::vector<uint8_t> spikes{1, 1};
  const std::vector<double> diff = xb.read_columns_spiking(spikes, 1.0);
  EXPECT_NEAR(diff[0], 0.0, 1e-15);
}

TEST(DifferentialCrossbarTest, SignedWeightedSum) {
  MemristorConfig cfg;
  DifferentialCrossbar xb(2, 1, cfg);
  xb.program_cell(0, 0, 3, 8);
  xb.program_cell(1, 0, -5, 8);
  const std::vector<uint8_t> spikes{1, 1};
  const std::vector<double> diff = xb.read_columns_spiking(spikes, 1.0);
  const double dg = (g_max(cfg) - g_min(cfg)) / 8.0;
  EXPECT_NEAR(diff[0], (3.0 - 5.0) * dg, 1e-15);
}

TEST(DefectTest, ZeroRatesLeaveProgrammingExact) {
  MemristorConfig cfg;
  Crossbar xb(4, 4, cfg);
  nn::Rng rng(1);
  xb.program_cell(0, 0, 5, 8, &rng);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), level_conductance(5, 8, cfg));
}

TEST(DefectTest, StuckOffForcesMinConductance) {
  MemristorConfig cfg;
  cfg.stuck_off_rate = 1.0;  // every cell defective
  Crossbar xb(2, 2, cfg);
  nn::Rng rng(2);
  xb.program_cell(0, 0, 8, 8, &rng);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), g_min(cfg));
}

TEST(DefectTest, StuckOnForcesMaxConductance) {
  MemristorConfig cfg;
  cfg.stuck_on_rate = 1.0;
  Crossbar xb(2, 2, cfg);
  nn::Rng rng(3);
  xb.program_cell(0, 0, 0, 8, &rng);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), g_max(cfg));
}

TEST(DefectTest, NoRngMeansIdealProgramming) {
  // Defects only strike when a generator is supplied (deterministic
  // programming path stays ideal).
  MemristorConfig cfg;
  cfg.stuck_off_rate = 1.0;
  Crossbar xb(2, 2, cfg);
  xb.program_cell(0, 0, 8, 8, nullptr);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), g_max(cfg));
}

TEST(DefectTest, RateIsApproximatelyRespected) {
  MemristorConfig cfg;
  cfg.stuck_off_rate = 0.25;
  Crossbar xb(32, 32, cfg);
  nn::Rng rng(4);
  int64_t stuck = 0;
  for (int64_t r = 0; r < 32; ++r) {
    for (int64_t c = 0; c < 32; ++c) {
      xb.program_cell(r, c, 8, 8, &rng);
      if (xb.conductance(r, c) == g_min(cfg)) ++stuck;
    }
  }
  EXPECT_NEAR(static_cast<double>(stuck) / 1024.0, 0.25, 0.06);
}

TEST(IrDropTest, ZeroWireResistanceIsIdeal) {
  MemristorConfig cfg;
  Crossbar xb(4, 4, cfg);
  xb.program_cell(3, 3, 8, 8);
  EXPECT_DOUBLE_EQ(xb.effective_conductance(3, 3), xb.conductance(3, 3));
}

TEST(IrDropTest, AttenuatesCurrents) {
  MemristorConfig ideal;
  MemristorConfig lossy = ideal;
  lossy.wire_resistance_ohm = 2000.0;
  Crossbar a(4, 4, ideal), b(4, 4, lossy);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      a.program_cell(r, c, 8, 8);
      b.program_cell(r, c, 8, 8);
    }
  }
  const std::vector<double> volts(4, 1.0);
  const auto ia = a.read_columns(volts);
  const auto ib = b.read_columns(volts);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_LT(ib[c], ia[c]);
    EXPECT_GT(ib[c], 0.0);
  }
}

TEST(IrDropTest, FarCellsSufferMore) {
  MemristorConfig cfg;
  cfg.wire_resistance_ohm = 2000.0;
  Crossbar xb(8, 8, cfg);
  xb.program_cell(0, 0, 8, 8);
  xb.program_cell(7, 7, 8, 8);
  EXPECT_GT(xb.effective_conductance(0, 0), xb.effective_conductance(7, 7));
}

TEST(IrDropTest, LargerArraysLoseMoreRelativeCurrent) {
  // The justification for tiling at t=32 (Eq 1): relative IR loss grows
  // with array extent.
  MemristorConfig cfg;
  cfg.wire_resistance_ohm = 1000.0;
  auto relative_loss = [&cfg](int64_t t) {
    Crossbar xb(t, t, cfg);
    for (int64_t r = 0; r < t; ++r) xb.program_cell(r, t - 1, 8, 8);
    const std::vector<double> volts(static_cast<size_t>(t), 1.0);
    const double got = xb.read_columns(volts)[static_cast<size_t>(t - 1)];
    const double ideal = static_cast<double>(t) * g_max(cfg);
    return 1.0 - got / ideal;
  };
  EXPECT_LT(relative_loss(8), relative_loss(32));
  EXPECT_LT(relative_loss(32), relative_loss(128));
}

}  // namespace
}  // namespace qsnc::snc
