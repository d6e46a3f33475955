#include <gtest/gtest.h>

#include <stdexcept>

#include "../test_util.h"
#include "nn/layers/batchnorm.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/flatten.h"
#include "nn/layers/pool.h"
#include "nn/layers/relu.h"
#include "nn/layers/residual.h"

namespace qsnc::nn {
namespace {

using test::randomize;

TEST(Conv2dTest, OutputShapeSamePadding) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  Tensor x({2, 3, 16, 16});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 16, 16}));
}

TEST(Conv2dTest, OutputShapeStridedValid) {
  Rng rng(1);
  Conv2d conv(1, 4, 5, 2, 0, rng);
  Tensor x({1, 1, 13, 13});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 5, 5}));
}

TEST(Conv2dTest, KnownValueSingleTap) {
  Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.weight().value[0] = 2.0f;
  conv.bias().value[0] = 0.5f;
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[3], 8.5f);
}

TEST(Conv2dTest, WrongChannelCountThrows) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  Tensor x({1, 4, 8, 8});
  EXPECT_THROW(conv.forward(x, false), std::invalid_argument);
}

TEST(Conv2dTest, BackwardBeforeForwardThrows) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  Tensor g({1, 1, 4, 4});
  EXPECT_THROW(conv.backward(g), std::logic_error);
}

TEST(Conv2dTest, InvalidGeometryThrows) {
  Rng rng(1);
  EXPECT_THROW(Conv2d(0, 1, 3, 1, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d(1, 1, 3, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d(1, 1, 3, 1, -1, rng), std::invalid_argument);
}

TEST(DenseTest, ComputesAffine) {
  Rng rng(2);
  Dense fc(3, 2, rng);
  fc.weight().value = Tensor({2, 3}, {1, 0, 0, 0, 1, 0});
  fc.bias().value = Tensor({2}, {0.5f, -0.5f});
  Tensor x({1, 3}, {3, 4, 5});
  Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.5f);
}

TEST(DenseTest, BatchIndependence) {
  Rng rng(2);
  Dense fc(4, 3, rng);
  Tensor x({2, 4});
  randomize(x, rng);
  Tensor y2 = fc.forward(x, false);
  // Row 0 alone must equal row 0 of the batch result.
  Tensor x0({1, 4});
  for (int64_t i = 0; i < 4; ++i) x0[i] = x[i];
  Tensor y0 = fc.forward(x0, false);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(y0.at(0, j), y2.at(0, j), 1e-5f);
  }
}

TEST(ReLUTest, ClampsNegatives) {
  ReLU relu;
  Tensor x({4}, {-1.0f, 0.0f, 2.0f, -0.5f});
  Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor x({3}, {-1.0f, 1.0f, 3.0f});
  relu.forward(x, true);
  Tensor g({3}, {5.0f, 5.0f, 5.0f});
  Tensor gi = relu.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 5.0f);
  EXPECT_FLOAT_EQ(gi[2], 5.0f);
}

TEST(ReLUTest, IsSignalBoundary) {
  ReLU relu;
  EXPECT_TRUE(relu.is_signal());
  Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  EXPECT_FALSE(conv.is_signal());
}

TEST(MaxPoolTest, SelectsWindowMax) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 4, 4}, {1, 2, 3, 4,
                          5, 6, 7, 8,
                          9, 10, 11, 12,
                          13, 14, 15, 16});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 6);
  EXPECT_FLOAT_EQ(y[1], 8);
  EXPECT_FLOAT_EQ(y[2], 14);
  EXPECT_FLOAT_EQ(y[3], 16);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1, 9, 2, 3});
  pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, {7.0f});
  Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0);
  EXPECT_FLOAT_EQ(gi[1], 7);
  EXPECT_FLOAT_EQ(gi[2], 0);
  EXPECT_FLOAT_EQ(gi[3], 0);
}

TEST(GlobalAvgPoolTest, ReducesToChannelMeans) {
  GlobalAvgPool pool;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);
}

TEST(FlattenTest, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 5});
  Rng rng(4);
  randomize(x, rng);
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor back = flat.backward(y);
  EXPECT_TRUE(back.allclose(x));
}

TEST(BatchNormTest, NormalizesTrainingBatch) {
  BatchNorm2d bn(2);
  Rng rng(5);
  Tensor x({4, 2, 3, 3});
  randomize(x, rng, -3.0f, 5.0f);
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0 and var ~1 after normalization (gamma=1, beta=0).
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t i = 0; i < 9; ++i) {
        const float v = y[(n * 2 + c) * 9 + i];
        sum += v;
        sq += v * v;
      }
    }
    const double mean = sum / 36.0;
    const double var = sq / 36.0 - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  BatchNorm2d bn(1);
  Rng rng(6);
  // Feed several training batches to build running stats.
  for (int i = 0; i < 50; ++i) {
    Tensor x({8, 1, 2, 2});
    for (int64_t j = 0; j < x.numel(); ++j) x[j] = rng.normal(3.0f, 2.0f);
    bn.forward(x, true);
  }
  // A constant eval input equal to the running mean maps near beta = 0.
  Tensor x({1, 1, 2, 2}, bn.running_mean()[0]);
  Tensor y = bn.forward(x, false);
  EXPECT_NEAR(y[0], 0.0f, 0.15f);
}

TEST(BatchNormTest, InferenceAffineFoldsCorrectly) {
  BatchNorm2d bn(1);
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    Tensor x({4, 1, 2, 2});
    randomize(x, rng, -2.0f, 6.0f);
    bn.forward(x, true);
  }
  float scale = 0.0f, shift = 0.0f;
  bn.inference_affine(0, &scale, &shift);
  Tensor x({1, 1, 1, 1}, {1.7f});
  Tensor x4({1, 1, 2, 2}, 1.7f);
  Tensor y = bn.forward(x4, false);
  EXPECT_NEAR(y[0], scale * 1.7f + shift, 1e-5f);
}

TEST(ResidualBlockTest, IdentityShortcutShape) {
  Rng rng(8);
  ResidualBlock block(4, 4, 1, rng);
  Tensor x({2, 4, 8, 8});
  randomize(x, rng);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_FALSE(block.has_projection());
}

TEST(ResidualBlockTest, PadIdentityDownsample) {
  Rng rng(8);
  ResidualBlock block(4, 8, 2, rng, ShortcutKind::kPadIdentity);
  Tensor x({2, 4, 8, 8});
  randomize(x, rng);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
  EXPECT_FALSE(block.has_projection());
}

TEST(ResidualBlockTest, ProjectionDownsample) {
  Rng rng(8);
  ResidualBlock block(4, 8, 2, rng, ShortcutKind::kProjection);
  Tensor x({2, 4, 8, 8});
  randomize(x, rng);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
  EXPECT_TRUE(block.has_projection());
}

TEST(ResidualBlockTest, ChildrenExposeNestedSignals) {
  Rng rng(8);
  ResidualBlock block(4, 4, 1, rng);
  int relus = 0;
  visit_layers(&block, [&relus](Layer* l) {
    if (dynamic_cast<ReLU*>(l) != nullptr) ++relus;
  });
  EXPECT_EQ(relus, 2);
}

TEST(ResidualBlockTest, ParamsAggregatesChildren) {
  Rng rng(8);
  ResidualBlock block(4, 8, 2, rng, ShortcutKind::kProjection);
  // conv1 w, bn1 (g,b), conv2 w, bn2 (g,b), proj w, proj bn (g,b) = 9.
  EXPECT_EQ(block.params().size(), 9u);
}

}  // namespace
}  // namespace qsnc::nn
