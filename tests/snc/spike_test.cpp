#include "snc/spike.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

// The encoder the SNC input stage used before encode_pixel: llround of the
// float product, clamped to the window. On x86-64 llround's out-of-range
// result (NaN, +-inf, |x| >= 2^63) is LLONG_MIN, which clamps to 0.
int64_t llround_encode(float pixel, float input_scale, int64_t window) {
  const float scaled = pixel * input_scale;
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(scaled)), 0,
                             window);
}

// Every k + 0.5 tie and its float neighbours, signed zeros, negatives,
// infinities, NaN and huge values, at input scales 15 and 16 and windows
// of 3, 4 and 8 bits; pixels are chosen so that pixel * scale lands on
// the interesting product.
TEST(EncodePixelTest, MatchesLlroundAndClamp) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> products = {0.0f,   -0.0f,  0.25f, -0.25f, -0.5f,
                                 -1.5f,  -7.0f,  inf,   -inf,   nan,
                                 -nan,   1e30f,  -1e30f, 9.2e18f, 9.3e18f,
                                 0x1p52f, 0x1p53f, 0x1p62f, 0x1p63f,
                                 std::numeric_limits<float>::max(),
                                 std::numeric_limits<float>::min(),
                                 std::numeric_limits<float>::denorm_min()};
  for (int k = -3; k <= 300; ++k) {
    const float tie = static_cast<float>(k) + 0.5f;
    products.push_back(tie);
    products.push_back(std::nextafter(tie, inf));
    products.push_back(std::nextafter(tie, -inf));
    products.push_back(static_cast<float>(k));
  }
  for (const float scale : {15.0f, 16.0f}) {
    for (const int bits : {3, 4, 8}) {
      const int64_t window = window_slots(bits);
      for (const float product : products) {
        // Both the product itself (scale 1) and a pixel that scales to it.
        for (const auto& [pixel, s] :
             {std::pair{product, 1.0f}, std::pair{product / scale, scale}}) {
          EXPECT_EQ(encode_pixel(pixel, s, window),
                    llround_encode(pixel, s, window))
              << "pixel " << pixel << " scale " << s << " bits " << bits;
        }
      }
    }
  }
}

TEST(EncodePixelTest, OutOfRangeAndNanEncodeToZero) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(encode_pixel(inf, 16.0f, 15), 0);
  EXPECT_EQ(encode_pixel(-inf, 16.0f, 15), 0);
  EXPECT_EQ(encode_pixel(std::nanf(""), 16.0f, 15), 0);
  EXPECT_EQ(encode_pixel(0x1p63f, 1.0f, 15), 0);
  EXPECT_EQ(encode_pixel(0x1p62f, 1.0f, 15), 15);
  EXPECT_EQ(encode_pixel(1.0f, 16.0f, 15), 15);
  EXPECT_EQ(encode_pixel(0.5f / 16.0f, 16.0f, 15), 1);
}

}  // namespace
}  // namespace qsnc::snc
