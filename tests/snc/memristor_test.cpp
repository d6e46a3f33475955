#include "snc/memristor.h"

#include <gtest/gtest.h>

namespace qsnc::snc {
namespace {

TEST(MemristorConfigTest, DefaultMatchesPaper) {
  // Paper Sec 4.1: resistance range [50 kOhm, 1 MOhm].
  MemristorConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.r_on_ohm, 50e3);
  EXPECT_DOUBLE_EQ(cfg.r_off_ohm, 1e6);
  EXPECT_DOUBLE_EQ(g_min(cfg), 1e-6);
  EXPECT_DOUBLE_EQ(g_max(cfg), 2e-5);
}

TEST(LevelConductanceTest, LinearInterpolation) {
  MemristorConfig cfg;
  EXPECT_DOUBLE_EQ(level_conductance(0, 8, cfg), g_min(cfg));
  EXPECT_DOUBLE_EQ(level_conductance(8, 8, cfg), g_max(cfg));
  EXPECT_DOUBLE_EQ(level_conductance(4, 8, cfg),
                   (g_min(cfg) + g_max(cfg)) / 2.0);
}

TEST(LevelConductanceTest, BadLevelThrows) {
  MemristorConfig cfg;
  EXPECT_THROW(level_conductance(-1, 8, cfg), std::invalid_argument);
  EXPECT_THROW(level_conductance(9, 8, cfg), std::invalid_argument);
  EXPECT_THROW(level_conductance(1, 0, cfg), std::invalid_argument);
}

TEST(NearestLevelTest, RoundTripsAllLevels) {
  MemristorConfig cfg;
  for (int64_t max_level : {1, 4, 8, 16}) {
    for (int64_t k = 0; k <= max_level; ++k) {
      const double g = level_conductance(k, max_level, cfg);
      EXPECT_EQ(nearest_level(g, max_level, cfg), k);
    }
  }
}

TEST(NearestLevelTest, ClampsOutOfRangeConductance) {
  MemristorConfig cfg;
  EXPECT_EQ(nearest_level(0.0, 8, cfg), 0);
  EXPECT_EQ(nearest_level(1.0, 8, cfg), 8);
}

}  // namespace
}  // namespace qsnc::snc
