#include "core/fixed_point.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ios>
#include <limits>
#include <vector>

#include "nn/layers/relu.h"
#include "nn/tensor.h"

namespace qsnc::core {
namespace {

TEST(SignalMaxTest, PowersOfTwoMinusOne) {
  EXPECT_EQ(signal_max(1), 1);
  EXPECT_EQ(signal_max(3), 7);
  EXPECT_EQ(signal_max(4), 15);
  EXPECT_EQ(signal_max(5), 31);
  EXPECT_EQ(signal_max(8), 255);
}

TEST(SignalRangeThresholdTest, HalfRange) {
  EXPECT_FLOAT_EQ(signal_range_threshold(4), 8.0f);
  EXPECT_FLOAT_EQ(signal_range_threshold(3), 4.0f);
  EXPECT_FLOAT_EQ(signal_range_threshold(2), 2.0f);
}

TEST(IntegerSignalQuantizerTest, RoundsToNearestInteger) {
  IntegerSignalQuantizer q(4);
  EXPECT_FLOAT_EQ(q.apply(3.2f), 3.0f);
  EXPECT_FLOAT_EQ(q.apply(3.5f), 4.0f);
  EXPECT_FLOAT_EQ(q.apply(0.49f), 0.0f);
}

TEST(IntegerSignalQuantizerTest, ClampsToWindow) {
  IntegerSignalQuantizer q(4);
  EXPECT_FLOAT_EQ(q.apply(99.0f), 15.0f);
  EXPECT_FLOAT_EQ(q.apply(-3.0f), 0.0f);
  EXPECT_FLOAT_EQ(q.max_value(), 15.0f);
}

TEST(IntegerSignalQuantizerTest, SteStopsAtCeiling) {
  IntegerSignalQuantizer q(3);  // ceiling 7
  EXPECT_TRUE(q.pass_through(3.0f));
  EXPECT_TRUE(q.pass_through(7.2f));
  EXPECT_FALSE(q.pass_through(7.6f));
  EXPECT_FALSE(q.pass_through(20.0f));
}

TEST(IntegerSignalQuantizerTest, BadBitsThrow) {
  EXPECT_THROW(IntegerSignalQuantizer(0), std::invalid_argument);
  EXPECT_THROW(IntegerSignalQuantizer(17), std::invalid_argument);
}

TEST(IntegerSignalQuantizerTest, OutputAlwaysIntegral) {
  IntegerSignalQuantizer q(5);
  for (float v = -2.0f; v < 40.0f; v += 0.13f) {
    const float o = q.apply(v);
    EXPECT_FLOAT_EQ(o, std::round(o));
    EXPECT_GE(o, 0.0f);
    EXPECT_LE(o, 31.0f);
  }
}

// relu_quantize_signal against the real thing: an nn::ReLU layer with the
// quantizer attached, compared bit for bit (sign of zero included).
void expect_fused_matches_relu_then_quantizer(int bits,
                                              const std::vector<float>& xs) {
  IntegerSignalQuantizer q(bits);
  nn::ReLU relu;
  relu.set_quantizer(&q);
  nn::Tensor in({static_cast<int64_t>(xs.size())});
  std::memcpy(in.data(), xs.data(), xs.size() * sizeof(float));
  const nn::Tensor want = relu.forward(in, false);
  for (size_t i = 0; i < xs.size(); ++i) {
    const float got =
        static_cast<float>(relu_quantize_signal(xs[i], q.max_value()));
    const float w = want.data()[i];
    ASSERT_EQ(std::memcmp(&got, &w, sizeof(float)), 0)
        << "M=" << bits << " o=" << std::hexfloat << xs[i] << ": fused "
        << got << ", ReLU+apply " << w;
  }
}

// `count` consecutive floats on either side of x, x itself included.
void push_neighbours(float x, int count, std::vector<float>& out) {
  float lo = x, hi = x;
  out.push_back(x);
  for (int i = 0; i < count; ++i) {
    lo = std::nextafter(lo, -std::numeric_limits<float>::infinity());
    hi = std::nextafter(hi, std::numeric_limits<float>::infinity());
    out.push_back(lo);
    out.push_back(hi);
  }
}

TEST(ReluQuantizeSignalTest, BitIdenticalToReluThenQuantizer) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (int bits : {1, 2, 4, 8, 15, 16}) {
    const float max_v = static_cast<float>(signal_max(bits));
    std::vector<float> xs = {-0.0f, 0.0f, -1.0f, -0.5f, -0.49999997f,
                             -1e-30f, -1e30f, -kInf, 0.49999997f, 0.5f,
                             max_v - 0.5f, max_v + 0.5f, max_v + 1.0f,
                             1e9f, 3e38f, kInf,
                             std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::denorm_min()};
    push_neighbours(max_v - 0.5f, 64, xs);
    push_neighbours(max_v + 0.5f, 64, xs);
    // 64 floats either side of every k and k + 0.5 in the signal range,
    // checked in chunks to keep the tensors small.
    for (int64_t k = 0; k <= signal_max(bits); ++k) {
      push_neighbours(static_cast<float>(k), 64, xs);
      push_neighbours(static_cast<float>(k) + 0.5f, 64, xs);
      if (xs.size() >= (size_t{1} << 16)) {
        expect_fused_matches_relu_then_quantizer(bits, xs);
        if (HasFatalFailure()) return;
        xs.clear();
      }
    }
    expect_fused_matches_relu_then_quantizer(bits, xs);
    if (HasFatalFailure()) return;
  }
}

TEST(WeightGridTest, LevelsCount) {
  EXPECT_EQ(weight_grid_levels(3), 9);   // 0, ±1..±4 scaled
  EXPECT_EQ(weight_grid_levels(4), 17);
}

TEST(WeightGridTest, QuantizeSnapsToNearestLevel) {
  // bits=2, scale=1: step=0.25, levels {0, ±0.25, ±0.5}.
  EXPECT_FLOAT_EQ(quantize_weight_to_grid(0.3f, 2, 1.0f), 0.25f);
  EXPECT_FLOAT_EQ(quantize_weight_to_grid(0.1f, 2, 1.0f), 0.0f);
  EXPECT_FLOAT_EQ(quantize_weight_to_grid(-0.4f, 2, 1.0f), -0.5f);
}

TEST(WeightGridTest, ClampsToTopLevel) {
  EXPECT_FLOAT_EQ(quantize_weight_to_grid(9.0f, 2, 1.0f), 0.5f);
  EXPECT_FLOAT_EQ(quantize_weight_to_grid(-9.0f, 2, 1.0f), -0.5f);
}

TEST(WeightGridTest, ZeroIsAlwaysRepresentable) {
  for (int bits = 1; bits <= 8; ++bits) {
    EXPECT_FLOAT_EQ(quantize_weight_to_grid(0.0f, bits, 3.7f), 0.0f);
  }
}

TEST(WeightGridTest, IndexMatchesQuantize) {
  const float scale = 2.0f;
  for (int bits : {2, 3, 4}) {
    const float step = scale / static_cast<float>(1 << bits);
    for (float w = -1.5f; w <= 1.5f; w += 0.07f) {
      const int64_t k = weight_grid_index(w, bits, scale);
      EXPECT_FLOAT_EQ(quantize_weight_to_grid(w, bits, scale),
                      static_cast<float>(k) * step);
    }
  }
}

TEST(WeightGridTest, NonPositiveScaleThrows) {
  EXPECT_THROW(quantize_weight_to_grid(1.0f, 4, 0.0f), std::invalid_argument);
  EXPECT_THROW(weight_grid_index(1.0f, 4, -1.0f), std::invalid_argument);
}

TEST(InputSignalTest, QuantizesLikeEncoder) {
  EXPECT_FLOAT_EQ(quantize_input_signal(3.4f, 4), 3.0f);
  EXPECT_FLOAT_EQ(quantize_input_signal(15.7f, 4), 15.0f);
  EXPECT_FLOAT_EQ(quantize_input_signal(22.0f, 4), 15.0f);
  EXPECT_FLOAT_EQ(quantize_input_signal(-1.0f, 4), 0.0f);
  EXPECT_FLOAT_EQ(quantize_input_signal(6.0f, 3), 6.0f);
  EXPECT_FLOAT_EQ(quantize_input_signal(9.0f, 3), 7.0f);
}

TEST(RoundHalfUpTest, TiesGoUp) {
  EXPECT_EQ(round_half_up(0.5), 1);
  EXPECT_EQ(round_half_up(1.5), 2);
  EXPECT_EQ(round_half_up(2.5), 3);
  // std::llround would give -1 and -2 here; the SNC counter convention
  // (floor(v + 0.5)) sends negative halves up toward zero instead.
  EXPECT_EQ(round_half_up(-0.5), 0);
  EXPECT_EQ(round_half_up(-1.5), -1);
}

TEST(RoundHalfUpTest, NonTiesMatchNearest) {
  EXPECT_EQ(round_half_up(0.0), 0);
  EXPECT_EQ(round_half_up(0.49), 0);
  EXPECT_EQ(round_half_up(0.51), 1);
  EXPECT_EQ(round_half_up(-0.49), 0);
  EXPECT_EQ(round_half_up(-0.51), -1);
  EXPECT_EQ(round_half_up(7.0), 7);
  EXPECT_EQ(round_half_up(-7.0), -7);
}

}  // namespace
}  // namespace qsnc::core
