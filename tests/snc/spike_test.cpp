#include "snc/spike.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace qsnc::snc {
namespace {

TEST(WindowSlotsTest, PowersOfTwoMinusOne) {
  EXPECT_EQ(window_slots(3), 7);
  EXPECT_EQ(window_slots(4), 15);
  EXPECT_EQ(window_slots(8), 255);
}

class RateCodeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RateCodeRoundTrip, EveryValueRoundTrips) {
  const int bits = GetParam();
  for (int64_t v = 0; v <= window_slots(bits); ++v) {
    const std::vector<uint8_t> train = rate_encode(v, bits);
    EXPECT_EQ(static_cast<int64_t>(train.size()), window_slots(bits));
    EXPECT_EQ(rate_decode(train), v) << "bits " << bits << " value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, RateCodeRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(RateEncodeTest, ClampsOutOfRange) {
  EXPECT_EQ(rate_decode(rate_encode(99, 3)), 7);
  EXPECT_EQ(rate_decode(rate_encode(-5, 3)), 0);
}

TEST(RateEncodeTest, SpikesAreEvenlySpread) {
  // With n = T/2 the gaps between spikes never exceed 3 slots.
  const std::vector<uint8_t> train = rate_encode(7, 4);  // 7 of 15
  int gap = 0, max_gap = 0;
  for (uint8_t s : train) {
    if (s) {
      max_gap = std::max(max_gap, gap);
      gap = 0;
    } else {
      ++gap;
    }
  }
  EXPECT_LE(max_gap, 2);
}

// The encoders take the widths SpikeCounter takes. A rejected width
// throws before the train is written (or, for the vector forms, sized).
TEST(RateEncodeTest, RejectsOutOfRangeWidths) {
  nn::Rng rng(1);
  std::vector<uint8_t> train(4, 9);
  for (int bits : {0, -1, 31, 64}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    EXPECT_THROW(rate_encode_into(1, bits, train.data()),
                 std::invalid_argument);
    EXPECT_THROW(rate_encode_stochastic_into(1, bits, rng, train.data()),
                 std::invalid_argument);
    EXPECT_THROW(rate_encode(1, bits), std::invalid_argument);
    EXPECT_THROW(rate_encode_stochastic(1, bits, rng), std::invalid_argument);
  }
  EXPECT_EQ(train, std::vector<uint8_t>(4, 9));
}

TEST(RateEncodeStochasticTest, MeanApproachesValue) {
  nn::Rng rng(1);
  double acc = 0.0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    acc += static_cast<double>(rate_decode(rate_encode_stochastic(10, 4, rng)));
  }
  EXPECT_NEAR(acc / kN, 10.0, 0.3);
}

TEST(IntegrateFireTest, FiresOnThresholdCross) {
  IntegrateFire ifc(1.0);
  EXPECT_EQ(ifc.integrate(0.4), 0);
  EXPECT_EQ(ifc.integrate(0.4), 0);
  EXPECT_EQ(ifc.integrate(0.4), 1);  // 1.2 crosses once
  EXPECT_NEAR(ifc.membrane(), 0.2, 1e-12);
}

TEST(IntegrateFireTest, LargeChargeFiresMultiple) {
  IntegrateFire ifc(1.0);
  EXPECT_EQ(ifc.integrate(3.7), 3);
  EXPECT_NEAR(ifc.membrane(), 0.7, 1e-12);
}

TEST(IntegrateFireTest, NegativeChargeNeverFires) {
  IntegrateFire ifc(1.0);
  EXPECT_EQ(ifc.integrate(-5.0), 0);
  EXPECT_EQ(ifc.integrate(4.0), 0);  // membrane still below threshold
  EXPECT_EQ(ifc.integrate(2.5), 1);
}

TEST(IntegrateFireTest, ResetClearsMembrane) {
  IntegrateFire ifc(1.0);
  ifc.integrate(0.9);
  ifc.reset();
  EXPECT_EQ(ifc.membrane(), 0.0);
}

TEST(IntegrateFireTest, NonPositiveThresholdThrows) {
  EXPECT_THROW(IntegrateFire(0.0), std::invalid_argument);
  EXPECT_THROW(IntegrateFire(-1.0), std::invalid_argument);
}

TEST(SpikeCounterTest, CountsAndSaturates) {
  SpikeCounter counter(3);  // ceiling 7
  counter.count(3);
  EXPECT_EQ(counter.value(), 3);
  counter.count(10);
  EXPECT_EQ(counter.value(), 7);
  counter.reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(SpikeCounterTest, BadBitsThrow) {
  EXPECT_THROW(SpikeCounter(0), std::invalid_argument);
  EXPECT_THROW(SpikeCounter(31), std::invalid_argument);
}

TEST(IfcChainTest, DeterministicTrainThroughIfcReproducesProduct) {
  // A single synapse of weight 1 (threshold 1): n input spikes, each of
  // charge 1, produce exactly n output spikes.
  for (int64_t n = 0; n <= 15; ++n) {
    const std::vector<uint8_t> train = rate_encode(n, 4);
    IntegrateFire ifc(1.0);
    SpikeCounter counter(4);
    for (uint8_t s : train) {
      counter.count(ifc.integrate(s ? 1.0 : 0.0));
    }
    EXPECT_EQ(counter.value(), n);
  }
}

}  // namespace
}  // namespace qsnc::snc
