#include "core/int_quant_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dynamic_fixed_point.h"
#include "core/fixed_point.h"
#include "models/model_zoo.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/flatten.h"
#include "nn/layers/pool.h"
#include "nn/layers/relu.h"
#include "nn/max_pool_walk.h"
#include "nn/network.h"
#include "nn/rng.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "serve/backend.h"
#include "util/thread_pool.h"

namespace qsnc::core {
namespace {

constexpr int kBits = 4;
const nn::Shape kInputShape{1, 12, 12};

// Every weight snapped to the dyadic 1/16 grid, which is what the deployed
// fixed-point models look like and what the engine's exactness checks
// require. Biases stay arbitrary floats — the epilogue adds them in fp32
// either way.
void snap_to_dyadic_grid(nn::Network& net, nn::Rng& rng) {
  for (nn::Param* p : net.params()) {
    if (p->value.shape().size() >= 2) {
      for (int64_t i = 0; i < p->value.numel(); ++i) {
        p->value[i] = std::round(p->value[i] * 16.0f) / 16.0f;
      }
    } else {
      for (int64_t i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.uniform(-0.5f, 0.5f);
      }
    }
  }
}

nn::Network make_dyadic_net(uint64_t seed) {
  // Conv -> ReLU -> Pool -> Conv -> ReLU -> Flatten -> Dense.
  nn::Rng rng(seed);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Conv2d>(4, 6, 3, 1, 0, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(96, 10, rng);
  snap_to_dyadic_grid(net, rng);
  return net;
}

// Pixel batch in [0, 1], encoded the way QuantBackend encodes before
// handing to either execution path.
nn::Tensor random_pixels(int64_t n, uint64_t seed,
                         const nn::Shape& chw = kInputShape) {
  nn::Rng rng(seed);
  nn::Tensor batch({n, chw[0], chw[1], chw[2]});
  for (int64_t i = 0; i < batch.numel(); ++i) batch[i] = rng.uniform();
  return batch;
}

nn::Tensor encode(const nn::Tensor& pixels) {
  const float scale =
      std::min(16.0f, static_cast<float>(signal_max(kBits)));
  nn::Tensor encoded = pixels;
  encoded *= scale;
  for (int64_t i = 0; i < encoded.numel(); ++i) {
    encoded[i] = quantize_input_signal(encoded[i], kBits);
  }
  return encoded;
}

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "logit " << i << " diverged";
    // Same bits, not just same value: rule out -0.0 vs +0.0 drift in the
    // bias/ReLU epilogue.
    ASSERT_EQ(std::signbit(a[i]), std::signbit(b[i])) << "sign bit " << i;
  }
}

class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force)
      : prev_(nn::simd::set_force_scalar(force)) {}
  ~ForceScalarGuard() { nn::simd::set_force_scalar(prev_); }

 private:
  bool prev_;
};

TEST(IntQuantEngineTest, CompilesDyadicNet) {
  nn::Network net = make_dyadic_net(11);
  auto engine = IntQuantEngine::build(net, kInputShape, kBits);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->signal_bits(), kBits);
  EXPECT_EQ(engine->crossbar_layers(), 3u);
}

TEST(IntQuantEngineTest, LogitsBitIdenticalToFakeQuantFloatPath) {
  nn::Network net = make_dyadic_net(23);
  auto engine = IntQuantEngine::build(net, kInputShape, kBits);
  ASSERT_NE(engine, nullptr);

  const nn::Tensor encoded = encode(random_pixels(5, 99));

  IntegerSignalQuantizer quantizer(kBits);
  net.set_signal_quantizer(&quantizer);
  const nn::Tensor want = net.forward(encoded, false);
  net.set_signal_quantizer(nullptr);

  const nn::Tensor got = engine->forward(encoded);
  expect_bitwise_equal(got, want);
}

TEST(IntQuantEngineTest, PredictMatchesNetworkArgmaxIncludingTies) {
  nn::Network net = make_dyadic_net(31);
  auto engine = IntQuantEngine::build(net, kInputShape, kBits);
  ASSERT_NE(engine, nullptr);

  const nn::Tensor encoded = encode(random_pixels(8, 5));

  IntegerSignalQuantizer quantizer(kBits);
  net.set_signal_quantizer(&quantizer);
  const std::vector<int64_t> want = net.predict(encoded);
  net.set_signal_quantizer(nullptr);

  EXPECT_EQ(engine->predict(encoded), want);
}

TEST(IntQuantEngineTest, RejectsUnclusteredFloatWeights) {
  // He-normal floats are essentially never exact multiples of a dyadic
  // step, so the exactness proof does not apply and build() must decline.
  nn::Rng rng(7);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(4 * 12 * 12, 10, rng);
  EXPECT_EQ(IntQuantEngine::build(net, kInputShape, kBits), nullptr);
}

TEST(IntQuantEngineTest, RejectsUnsupportedLayerTypes) {
  nn::Rng rng(7);
  // GlobalAvgPool emits fractional averages between crossbar layers, which
  // the integer domain tracking does not model. Every weight sits on a
  // dyadic grid, so the pool is the only reason to decline.
  nn::Network with_avg;
  with_avg.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  with_avg.emplace<nn::ReLU>();
  with_avg.emplace<nn::GlobalAvgPool>();
  with_avg.emplace<nn::Dense>(4, 10, rng);
  for (nn::Param* p : with_avg.params()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] = std::round(p->value[i] * 16.0f) / 16.0f;
    }
  }
  EXPECT_EQ(IntQuantEngine::build(with_avg, kInputShape, kBits), nullptr);
}

TEST(IntQuantEngineTest, RejectsOutOfRangeSignalBits) {
  nn::Network net = make_dyadic_net(11);
  EXPECT_EQ(IntQuantEngine::build(net, kInputShape, 0), nullptr);
  EXPECT_EQ(IntQuantEngine::build(net, kInputShape, 16), nullptr);
}

TEST(IntQuantEngineTest, BitIdenticalAcrossThreadCountsAndDispatch) {
  nn::Network net = make_dyadic_net(47);
  auto engine = IntQuantEngine::build(net, kInputShape, kBits);
  ASSERT_NE(engine, nullptr);
  const nn::Tensor encoded = encode(random_pixels(6, 13));

  const int original = util::num_threads();
  util::set_num_threads(1);
  const nn::Tensor reference = engine->forward(encoded);
  for (int threads : {1, 2, 8}) {
    util::set_num_threads(threads);
    expect_bitwise_equal(engine->forward(encoded), reference);
    ForceScalarGuard guard(true);
    expect_bitwise_equal(engine->forward(encoded), reference);
  }
  util::set_num_threads(original);
}

// QuantBackend on its integer engine must serve exactly the predictions of
// the fake-quant float path on the same encoded batch — the engine is a
// pure execution-path swap, never a behavior change.
TEST(IntQuantEngineTest, QuantBackendPathSwapIsInvisible) {
  const nn::Tensor pixels = random_pixels(7, 21);

  nn::Network net_int = make_dyadic_net(59);
  serve::QuantBackend with_engine(net_int, kInputShape, kBits);
  EXPECT_TRUE(with_engine.integer_engine_active());
  const std::vector<int64_t> got = with_engine.infer_batch(pixels);

  nn::Network net_float = make_dyadic_net(59);
  IntegerSignalQuantizer quantizer(kBits);
  net_float.set_signal_quantizer(&quantizer);
  EXPECT_EQ(got, net_float.predict(encode(pixels)));
}

TEST(IntQuantEngineTest, QuantBackendStaysOnFloatPathForFloatWeights) {
  nn::Rng rng(3);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(4 * 12 * 12, 10, rng);
  serve::QuantBackend backend(net, kInputShape, kBits);
  EXPECT_FALSE(backend.integer_engine_active());
  // Still serves correctly shaped predictions through the float path.
  const auto preds = backend.infer_batch(random_pixels(3, 1));
  EXPECT_EQ(preds.size(), 3u);
}

// Builds the engine for `net` and pins its logits, bit for bit, to the
// fake-quant float path on one encoded batch: at 1, 2 and 4 threads, with
// the AVX2 kernels and forced scalar.
void expect_engine_matches_float_path(nn::Network& net, const nn::Shape& chw,
                                      int64_t batch, uint64_t seed) {
  auto engine = IntQuantEngine::build(net, chw, kBits);
  ASSERT_NE(engine, nullptr);
  const nn::Tensor encoded = encode(random_pixels(batch, seed, chw));

  IntegerSignalQuantizer quantizer(kBits);
  net.set_signal_quantizer(&quantizer);
  const nn::Tensor want = net.forward(encoded, false);
  net.set_signal_quantizer(nullptr);

  const int original = util::num_threads();
  for (int threads : {1, 2, 4}) {
    util::set_num_threads(threads);
    for (bool force_scalar : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " force_scalar=" + std::to_string(force_scalar));
      ForceScalarGuard guard(force_scalar);
      expect_bitwise_equal(engine->forward(encoded), want);
    }
  }
  util::set_num_threads(original);
}

TEST(IntQuantEngineTest, StrideTwoConvMatchesFloatPath) {
  nn::Rng rng(61);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 2, 1, rng);  // 12x12 -> 6x6
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2d>(4, 5, 3, 2, 0, rng);  // 6x6 -> 2x2
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(5 * 2 * 2, 10, rng);
  snap_to_dyadic_grid(net, rng);
  expect_engine_matches_float_path(net, kInputShape, 5, 62);
}

// A pool between a crossbar layer and its ReLU runs on floats; the ReLU
// after it converts them to signals.
TEST(IntQuantEngineTest, PoolBeforeReLURunsInTheFloatDomain) {
  nn::Rng rng(63);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2d>(4, 3, 3, 1, 0, rng);
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(3 * 2 * 2, 10, rng);
  snap_to_dyadic_grid(net, rng);
  expect_engine_matches_float_path(net, kInputShape, 6, 64);
}

// Patches of 27 and 45 taps leave an unpaired last k row; outputs of 9x5
// and 7x3 fill no 16-lane tile evenly, and rows of 5 and 3 pixels split a
// tile into more runs than the vector gather takes.
TEST(IntQuantEngineTest, OddPatchAndNarrowOutputsMatchFloatPath) {
  const nn::Shape chw{3, 9, 5};
  nn::Rng rng(65);
  nn::Network net;
  net.emplace<nn::Conv2d>(3, 5, 3, 1, 1, rng);  // 9x5, patch 27
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2d>(5, 4, 3, 1, 0, rng);  // 7x3, patch 45
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(4 * 7 * 3, 10, rng);
  snap_to_dyadic_grid(net, rng);
  expect_engine_matches_float_path(net, chw, 7, 66);
}

// The output is the last ReLU's signals, converted back to float; the
// bias-free layers take the +0.0-bias epilogue.
TEST(IntQuantEngineTest, NetEndingInReLUMatchesFloatPath) {
  nn::Rng rng(67);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng, /*use_bias=*/false);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(4 * 6 * 6, 12, rng, /*use_bias=*/false);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(12, 10, rng);
  net.emplace<nn::ReLU>();
  snap_to_dyadic_grid(net, rng);
  expect_engine_matches_float_path(net, kInputShape, 5, 68);
}

// A 2x2/stride-2 pool over odd extents drops the last row and column; it
// takes the two-rows-per-output path on signals.
TEST(IntQuantEngineTest, TwoByTwoPoolOverOddExtentsMatchesFloatPath) {
  for (int64_t extent : {5, 7}) {
    SCOPED_TRACE("extent=" + std::to_string(extent));
    const nn::Shape chw{2, extent, extent};
    nn::Rng rng(71 + extent);
    nn::Network net;
    net.emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng);  // extent x extent
    net.emplace<nn::ReLU>();
    net.emplace<nn::MaxPool2d>(2, 2);
    const int64_t pooled = (extent - 2) / 2 + 1;
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(4 * pooled * pooled, 10, rng);
    snap_to_dyadic_grid(net, rng);
    expect_engine_matches_float_path(net, chw, 5, 72 + extent);
  }
}

// Overlapping (3x3/s2) and stride-1 (2x2/s1) windows take the generic walk.
TEST(IntQuantEngineTest, GenericPoolWindowsMatchFloatPath) {
  for (int64_t kernel : {2, 3}) {
    const int64_t stride = kernel == 3 ? 2 : 1;
    SCOPED_TRACE("kernel=" + std::to_string(kernel) +
                 " stride=" + std::to_string(stride));
    const nn::Shape chw{1, 9, 9};
    nn::Rng rng(75 + kernel);
    nn::Network net;
    net.emplace<nn::Conv2d>(1, 3, 3, 1, 1, rng);  // 9x9
    net.emplace<nn::ReLU>();
    net.emplace<nn::MaxPool2d>(kernel, stride);
    const int64_t pooled = (9 - kernel) / stride + 1;
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(3 * pooled * pooled, 10, rng);
    snap_to_dyadic_grid(net, rng);
    expect_engine_matches_float_path(net, chw, 4, 76 + kernel);
  }
}

// A pool straight after a conv runs on its float outputs. With the logits
// being those pooled floats, every negative maximum reaches the output.
TEST(IntQuantEngineTest, FloatDomainPoolKeepsNegativeMaxima) {
  nn::Rng rng(79);
  nn::Network net;
  auto& conv = net.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Flatten>();
  snap_to_dyadic_grid(net, rng);
  for (int64_t i = 0; i < conv.bias().value.numel(); ++i) {
    conv.bias().value[i] = -8.0f - static_cast<float>(i);
  }
  auto engine = IntQuantEngine::build(net, kInputShape, kBits);
  ASSERT_NE(engine, nullptr);
  const nn::Tensor encoded = encode(random_pixels(3, 80));
  const nn::Tensor got = engine->forward(encoded);
  int64_t negative = 0;
  for (int64_t i = 0; i < got.numel(); ++i) negative += got[i] < 0.0f;
  EXPECT_GT(negative, got.numel() / 4);
  expect_engine_matches_float_path(net, kInputShape, 3, 80);
}

// The float walk against MaxPool2d::forward on taps a conv epilogue never
// yields: -0.0 before and after +0.0, NaN, and all-negative windows. The
// first of equal values wins and NaN taps are skipped, bit for bit.
TEST(IntQuantEngineTest, FloatPoolWalkMatchesMaxPool2dOnSignedZerosAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // One 5x6 plane; each 2x2 window (rows 0-1, 2-3) is one case.
  const std::vector<float> plane{
      -0.0f, 0.0f, 0.0f,  -0.0f, nan,   -3.0f,  //
      -0.0f, 0.0f, -0.0f, 0.0f,  -5.0f, nan,    //
      -2.0f, -1.5f, nan,  nan,   -inf,  -inf,   //
      -7.0f, -1.5f, nan,  nan,   -inf,  -1.0f,  //
      9.0f,  9.0f, 9.0f,  9.0f,  9.0f,  9.0f};  // dropped by the 2x2/s2 pool
  for (int64_t kernel : {2, 3}) {
    const int64_t stride = 2;
    SCOPED_TRACE("kernel=" + std::to_string(kernel));
    nn::MaxPool2d pool(kernel, stride);
    const nn::Tensor want =
        pool.forward(nn::Tensor({1, 1, 5, 6}, plane), false);
    std::vector<float> got(static_cast<size_t>(want.numel()), 1.0f);
    nn::max_pool_planes(plane.data(), 1, 5, 6, kernel, stride, want.dim(2),
                        want.dim(3), -inf, got.data());
    for (int64_t i = 0; i < want.numel(); ++i) {
      const float g = got[static_cast<size_t>(i)];
      EXPECT_TRUE(g == want[i] || (std::isnan(g) && std::isnan(want[i])))
          << "output " << i << ": " << g << " vs " << want[i];
      EXPECT_EQ(std::signbit(g), std::signbit(want[i])) << "output " << i;
    }
  }
}

// lenet-mini as the quant serving benchmark deploys it: weights on their
// 8-bit dynamic-fixed-point grids.
nn::Network make_dyadic_lenet() {
  nn::Rng rng(9);
  nn::Network net = models::make_lenet_mini(rng);
  for (nn::Param* p : net.params()) {
    if (p->value.rank() < 2) continue;
    const int fl = choose_fraction_bits(p->value.abs_max(), 8);
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] = dfp_quantize(p->value[i], 8, fl);
    }
  }
  return net;
}

TEST(IntQuantEngineTest, DyadicLenetThroughQuantBackendMatchesFloatPath) {
  const nn::Shape chw{1, 28, 28};
  for (int64_t batch : {1, 3, 8}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    nn::Network reference = make_dyadic_lenet();
    expect_engine_matches_float_path(reference, chw, batch, 70 + batch);

    nn::Network served = make_dyadic_lenet();
    serve::QuantBackend backend(served, chw, kBits);
    ASSERT_TRUE(backend.integer_engine_active());
    const nn::Tensor pixels = random_pixels(batch, 80 + batch, chw);
    IntegerSignalQuantizer quantizer(kBits);
    reference.set_signal_quantizer(&quantizer);
    EXPECT_EQ(backend.infer_batch(pixels), reference.predict(encode(pixels)));
    reference.set_signal_quantizer(nullptr);
  }
}

}  // namespace
}  // namespace qsnc::core
