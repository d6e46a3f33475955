#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "nn/adam.h"
#include "nn/layers/dense.h"
#include "nn/layers/dropout.h"
#include "nn/layers/relu.h"
#include "nn/loss.h"
#include "nn/network.h"

namespace qsnc::nn {
namespace {

using test::randomize;

TEST(DropoutTest, InferenceIsIdentity) {
  Dropout drop(0.5f, 1);
  Tensor x({4, 8});
  Rng rng(2);
  randomize(x, rng);
  Tensor y = drop.forward(x, /*train=*/false);
  EXPECT_TRUE(y.allclose(x));
}

TEST(DropoutTest, TrainingDropsApproximatelyRate) {
  Dropout drop(0.3f, 3);
  Tensor x({1, 10000}, 1.0f);
  Tensor y = drop.forward(x, true);
  int64_t dropped = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / 10000.0, 0.3, 0.03);
}

TEST(DropoutTest, SurvivorsScaledToPreserveExpectation) {
  Dropout drop(0.25f, 4);
  Tensor x({1, 20000}, 2.0f);
  Tensor y = drop.forward(x, true);
  // E[y] = x: survivors carry 2.0 / 0.75.
  EXPECT_NEAR(y.mean(), 2.0f, 0.1f);
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] != 0.0f) {
      EXPECT_NEAR(y[i], 2.0f / 0.75f, 1e-5f);
    }
  }
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout drop(0.5f, 5);
  Tensor x({1, 100}, 1.0f);
  Tensor y = drop.forward(x, true);
  Tensor g({1, 100}, 1.0f);
  Tensor gi = drop.backward(g);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(gi[i], y[i]);  // identical mask * scale on ones
  }
}

TEST(DropoutTest, ZeroRateIsIdentityInTraining) {
  Dropout drop(0.0f, 6);
  Tensor x({2, 3});
  Rng rng(7);
  randomize(x, rng);
  EXPECT_TRUE(drop.forward(x, true).allclose(x));
  Tensor g({2, 3}, 1.0f);
  EXPECT_TRUE(drop.backward(g).allclose(g));
}

TEST(DropoutTest, InvalidRateThrows) {
  EXPECT_THROW(Dropout(-0.1f, 1), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f, 1), std::invalid_argument);
}

TEST(AdamTest, StepMovesAgainstGradient) {
  Param p("w", Tensor({1}, {1.0f}));
  p.grad[0] = 1.0f;
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.max_grad_norm = 0.0f;
  Adam opt({&p}, cfg);
  opt.step();
  // First Adam step moves by ~lr regardless of gradient magnitude.
  EXPECT_NEAR(p.value[0], 0.9f, 1e-3f);
  EXPECT_EQ(opt.steps_taken(), 1);
}

TEST(AdamTest, StepSizeInvariantToGradientScale) {
  Param a("a", Tensor({1}, {0.0f}));
  Param b("b", Tensor({1}, {0.0f}));
  AdamConfig cfg;
  cfg.lr = 0.01f;
  cfg.max_grad_norm = 0.0f;
  Adam oa({&a}, cfg), ob({&b}, cfg);
  a.grad[0] = 1e-3f;
  b.grad[0] = 1e3f;
  oa.step();
  ob.step();
  EXPECT_NEAR(a.value[0], b.value[0], 1e-6f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2.
  Param p("w", Tensor({1}, {0.0f}));
  AdamConfig cfg;
  cfg.lr = 0.1f;
  Adam opt({&p}, cfg);
  for (int i = 0; i < 300; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(AdamTest, TrainsToyClassifier) {
  Rng rng(8);
  Network net;
  net.emplace<Dense>(4, 16, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(16, 3, rng);
  AdamConfig cfg;
  cfg.lr = 0.05f;
  Adam opt(net.params(), cfg);

  Tensor x({30, 4});
  std::vector<int64_t> labels(30);
  for (int64_t i = 0; i < 30; ++i) {
    const int64_t cls = i % 3;
    labels[static_cast<size_t>(i)] = cls;
    for (int64_t j = 0; j < 4; ++j) {
      x.at(i, j) = rng.normal(static_cast<float>(cls) * 2.0f, 0.3f);
    }
  }
  float last = 0.0f;
  for (int step = 0; step < 80; ++step) {
    opt.zero_grad();
    Tensor logits = net.forward(x, true);
    LossResult loss = softmax_cross_entropy(logits, labels);
    net.backward(loss.grad);
    opt.step();
    last = loss.loss;
  }
  EXPECT_LT(last, 0.1f);
}

TEST(DropoutNetworkTest, RegularizesWithoutBreakingEval) {
  Rng rng(9);
  Network net;
  net.emplace<Dense>(8, 32, rng);
  net.emplace<ReLU>();
  net.emplace<Dropout>(0.5f, 10);
  net.emplace<Dense>(32, 2, rng);

  Tensor x({4, 8});
  randomize(x, rng);
  // Two inference passes agree exactly (dropout inert).
  Tensor a = net.forward(x, false);
  Tensor b = net.forward(x, false);
  EXPECT_TRUE(a.allclose(b));
  // Training passes differ (mask resampled).
  Tensor c = net.forward(x, true);
  Tensor d = net.forward(x, true);
  EXPECT_FALSE(c.allclose(d));
}

}  // namespace
}  // namespace qsnc::nn
