// Numerical gradient verification for every differentiable layer.
//
// Each test compares the analytic backward pass against central
// differences of the scalar loss 0.5*||forward(x)||^2 (so dLoss/dOut =
// Out). float32 arithmetic bounds achievable precision; tolerances are
// scaled to layer fan-in.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "nn/layers/batchnorm.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/pool.h"
#include "nn/layers/relu.h"
#include "nn/layers/residual.h"

namespace qsnc::nn {
namespace {

using test::gradcheck_input;
using test::gradcheck_params;
using test::randomize;

TEST(GradCheck, DenseInput) {
  Rng rng(21);
  Dense fc(6, 4, rng);
  Tensor x({3, 6});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(fc, x), 2e-2f);
}

TEST(GradCheck, DenseParams) {
  Rng rng(22);
  Dense fc(5, 3, rng);
  Tensor x({2, 5});
  randomize(x, rng);
  EXPECT_LT(gradcheck_params(fc, x), 2e-2f);
}

TEST(GradCheck, Conv2dInput) {
  Rng rng(23);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x({2, 2, 5, 5});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(conv, x), 3e-2f);
}

TEST(GradCheck, Conv2dParams) {
  Rng rng(24);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  Tensor x({1, 2, 4, 4});
  randomize(x, rng);
  EXPECT_LT(gradcheck_params(conv, x), 3e-2f);
}

TEST(GradCheck, Conv2dStridedNoBias) {
  Rng rng(25);
  Conv2d conv(1, 2, 3, 2, 0, rng, /*use_bias=*/false);
  Tensor x({2, 1, 7, 7});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(conv, x), 3e-2f);
  EXPECT_LT(gradcheck_params(conv, x), 3e-2f);
}

TEST(GradCheck, ReLUInput) {
  Rng rng(26);
  ReLU relu;
  Tensor x({4, 7});
  randomize(x, rng);
  // Keep values away from the kink for the finite-difference step.
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.1f;
  }
  EXPECT_LT(gradcheck_input(relu, x), 1e-2f);
}

TEST(GradCheck, MaxPoolInput) {
  Rng rng(27);
  MaxPool2d pool(2, 2);
  Tensor x({1, 2, 4, 4});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(pool, x), 1e-2f);
}

TEST(GradCheck, GlobalAvgPoolInput) {
  Rng rng(29);
  GlobalAvgPool pool;
  Tensor x({2, 3, 4, 4});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(pool, x), 1e-2f);
}

TEST(GradCheck, BatchNormInput) {
  Rng rng(30);
  BatchNorm2d bn(2);
  Tensor x({4, 2, 3, 3});
  randomize(x, rng, -2.0f, 2.0f);
  EXPECT_LT(gradcheck_input(bn, x), 5e-2f);
}

TEST(GradCheck, BatchNormParams) {
  Rng rng(31);
  BatchNorm2d bn(2);
  Tensor x({4, 2, 3, 3});
  randomize(x, rng, -2.0f, 2.0f);
  EXPECT_LT(gradcheck_params(bn, x), 5e-2f);
}

TEST(GradCheck, ResidualIdentityInput) {
  Rng rng(32);
  ResidualBlock block(2, 2, 1, rng);
  Tensor x({2, 2, 4, 4});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(block, x), 8e-2f);
}

TEST(GradCheck, ResidualPadIdentityInput) {
  Rng rng(33);
  ResidualBlock block(2, 4, 2, rng, ShortcutKind::kPadIdentity);
  Tensor x({2, 2, 4, 4});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(block, x), 8e-2f);
}

TEST(GradCheck, ResidualProjectionInput) {
  Rng rng(34);
  ResidualBlock block(2, 4, 2, rng, ShortcutKind::kProjection);
  Tensor x({2, 2, 4, 4});
  randomize(x, rng);
  EXPECT_LT(gradcheck_input(block, x), 8e-2f);
}

TEST(GradCheck, ResidualParams) {
  Rng rng(35);
  ResidualBlock block(2, 2, 1, rng);
  Tensor x({2, 2, 4, 4});
  randomize(x, rng);
  EXPECT_LT(gradcheck_params(block, x), 1e-1f);
}

}  // namespace
}  // namespace qsnc::nn
