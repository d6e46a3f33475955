#include "nn/igemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/gemm_kernels.h"
#include "nn/im2col.h"
#include "nn/rng.h"
#include "nn/simd.h"

namespace qsnc::nn {
namespace {

// Reference triple loop, accumulating onto existing C.
void naive_igemm_acc(const int16_t* a, const int16_t* b, int32_t* c,
                     int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const int32_t av = a[i * k + kk];
      if (av == 0) continue;
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] += av * static_cast<int32_t>(b[kk * n + j]);
      }
    }
  }
}

std::vector<int16_t> random_i16(int64_t n, int16_t max_abs, Rng& rng) {
  std::vector<int16_t> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = static_cast<int16_t>(std::lround(
        rng.uniform(-static_cast<float>(max_abs),
                    static_cast<float>(max_abs))));
  }
  return v;
}

std::vector<int32_t> random_i32(int64_t n, int32_t max_abs, Rng& rng) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = static_cast<int32_t>(std::lround(
        rng.uniform(-static_cast<float>(max_abs),
                    static_cast<float>(max_abs))));
  }
  return v;
}

class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force)
      : prev_(simd::set_force_scalar(force)) {}
  ~ForceScalarGuard() { simd::set_force_scalar(prev_); }

 private:
  bool prev_;
};

struct IGemmShape {
  int64_t m, k, n;
};

// Degenerate / odd extents plus quant-serving zoo shapes. Magnitudes are
// capped at 64 so the largest dot product (64 * 64 * 769) stays far below
// the int32 overflow contract.
class IGemmShapeTest : public ::testing::TestWithParam<IGemmShape> {};

TEST_P(IGemmShapeTest, MatchesNaiveAndScalarBitExact) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 7919 + k * 37 + n + 3);
  auto a = random_i16(m * k, 64, rng);
  const auto b = random_i16(k * n, 64, rng);
  const auto c0 = random_i32(m * n, 1000, rng);
  // Zero a third of A to exercise the zero-skip path.
  for (size_t i = 0; i < a.size(); i += 3) a[i] = 0;

  // igemm_acc vs the naive reference.
  std::vector<int32_t> want = c0;
  naive_igemm_acc(a.data(), b.data(), want.data(), m, k, n);
  std::vector<int32_t> got = c0;
  igemm_acc(a.data(), b.data(), got.data(), m, k, n);
  EXPECT_EQ(got, want) << "igemm_acc";

  // igemm overwrites C.
  std::vector<int32_t> from_zero(static_cast<size_t>(m * n), 0);
  naive_igemm_acc(a.data(), b.data(), from_zero.data(), m, k, n);
  std::vector<int32_t> overwrite = c0;  // garbage that must be ignored
  igemm(a.data(), b.data(), overwrite.data(), m, k, n);
  EXPECT_EQ(overwrite, from_zero) << "igemm";

  // SIMD dispatch must be bit-identical to the forced scalar path.
  std::vector<int32_t> scalar_c = c0;
  {
    ForceScalarGuard guard(true);
    igemm_acc(a.data(), b.data(), scalar_c.data(), m, k, n);
  }
  std::vector<int32_t> simd_c = c0;
  igemm_acc(a.data(), b.data(), simd_c.data(), m, k, n);
  EXPECT_EQ(simd_c, scalar_c) << "scalar/simd divergence";

  // Prepacked B agrees with the unpacked entry point on both paths.
  IGemmPackedB packed(b.data(), k, n);
  EXPECT_EQ(packed.k(), k);
  EXPECT_EQ(packed.n(), n);
  std::vector<int32_t> pre(static_cast<size_t>(m * n), -1);
  igemm_prepacked(a.data(), packed, pre.data(), m);
  EXPECT_EQ(pre, from_zero) << "igemm_prepacked";
  {
    ForceScalarGuard guard(true);
    std::vector<int32_t> pre_scalar(static_cast<size_t>(m * n), -1);
    igemm_prepacked(a.data(), packed, pre_scalar.data(), m);
    EXPECT_EQ(pre_scalar, from_zero) << "igemm_prepacked scalar";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegenerateAndOddShapes, IGemmShapeTest,
    ::testing::Values(IGemmShape{0, 0, 0}, IGemmShape{0, 5, 3},
                      IGemmShape{5, 0, 3}, IGemmShape{5, 3, 0},
                      IGemmShape{1, 1, 1}, IGemmShape{1, 7, 1},
                      IGemmShape{7, 1, 13}, IGemmShape{3, 5, 7},
                      IGemmShape{5, 129, 33}, IGemmShape{13, 131, 17},
                      IGemmShape{31, 257, 47}, IGemmShape{67, 97, 101}),
    [](const ::testing::TestParamInfo<IGemmShape>& info) {
      return (::testing::Message() << "m" << info.param.m << "_k"
                                   << info.param.k << "_n" << info.param.n)
          .GetString();
    });

INSTANTIATE_TEST_SUITE_P(
    ModelZooShapes, IGemmShapeTest,
    ::testing::Values(IGemmShape{6, 25, 784},    // lenet conv1 im2col
                      IGemmShape{12, 150, 100},  // lenet conv2 im2col
                      IGemmShape{64, 288, 64},   // alexnet conv3 im2col
                      IGemmShape{64, 300, 16},   // dense head batch
                      IGemmShape{128, 96, 64}),
    [](const ::testing::TestParamInfo<IGemmShape>& info) {
      return (::testing::Message() << "m" << info.param.m << "_k"
                                   << info.param.k << "_n" << info.param.n)
          .GetString();
    });

// How A's k pairs are filled in the tile sweep below.
enum class PairFill { kDense, kZeroAndHalfZeroPairs, kAllZero };

// A [m x k] with values in [-64, 64]. kZeroAndHalfZeroPairs cycles the k
// pairs (2p, 2p+1) through (0, 0), (a, 0), (0, a) and (a, b), so a zero
// pair and each half of a pair meet every row and the odd-k tail.
std::vector<int16_t> tile_a(int64_t m, int64_t k, PairFill fill, Rng& rng) {
  std::vector<int16_t> a = random_i16(m * k, 64, rng);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const int64_t pair = kk / 2 + i;  // shift the cycle per row
      const bool lo = kk % 2 == 0;
      bool zero = fill == PairFill::kAllZero;
      if (fill == PairFill::kZeroAndHalfZeroPairs) {
        zero = pair % 4 == 0 || (pair % 4 == 1 && !lo) ||
               (pair % 4 == 2 && lo);
      }
      if (zero) a[static_cast<size_t>(i * k + kk)] = 0;
    }
  }
  return a;
}

// The AVX2 tile is instantiated per row count and handles an odd k once,
// after its pair loop: every row remainder of kIMR, odd and even k, and n
// around one 16-lane tile, against the naive loop on both dispatches.
TEST(IGemmTest, EveryTileRowCountKTailAndWidthMatchesNaive) {
  for (int64_t m : {1, 2, 3, 4, 5, 6, 9, 12}) {
    for (int64_t k : {1, 2, 3, 25, 151}) {
      for (int64_t n : {1, 15, 16, 17, 100}) {
        for (PairFill fill : {PairFill::kDense, PairFill::kZeroAndHalfZeroPairs,
                              PairFill::kAllZero}) {
          Rng rng(m * 1009 + k * 31 + n * 7 + static_cast<int64_t>(fill));
          const auto a = tile_a(m, k, fill, rng);
          const auto b = random_i16(k * n, 64, rng);
          const auto c0 = random_i32(m * n, 1000, rng);
          std::vector<int32_t> want = c0;
          naive_igemm_acc(a.data(), b.data(), want.data(), m, k, n);
          std::vector<int32_t> from_zero(static_cast<size_t>(m * n), 0);
          naive_igemm_acc(a.data(), b.data(), from_zero.data(), m, k, n);
          const IGemmPackedB packed(b.data(), k, n);
          for (bool force_scalar : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "m" << m << " k" << k << " n" << n << " fill "
                         << static_cast<int>(fill) << " force_scalar "
                         << force_scalar);
            ForceScalarGuard guard(force_scalar);
            std::vector<int32_t> got = c0;
            igemm_acc(a.data(), b.data(), got.data(), m, k, n);
            ASSERT_EQ(got, want) << "igemm_acc";
            std::vector<int32_t> pre(static_cast<size_t>(m * n), -1);
            igemm_prepacked(a.data(), packed, pre.data(), m);
            ASSERT_EQ(pre, from_zero) << "igemm_prepacked";
          }
        }
      }
    }
  }
}

TEST(IGemmTest, TinyKnownResult) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<int16_t> a{1, 2, 3, 4};
  const std::vector<int16_t> b{5, 6, 7, 8};
  std::vector<int32_t> c(4, 99);
  igemm(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c, (std::vector<int32_t>{19, 22, 43, 50}));
}

TEST(IGemmTest, HandlesExtremeInt16ValuesWithinContract) {
  // max|A| * max|B| * k = 32767 * 32767 * 2 < 2^31: the accumulator must
  // not saturate or wrap even at full int16 range when k is small.
  const std::vector<int16_t> a{32767, -32768};
  const std::vector<int16_t> b{32767, -32768, -32768, 32767};
  std::vector<int32_t> c(2, 0);
  igemm(a.data(), b.data(), c.data(), 1, 2, 2);
  EXPECT_EQ(c[0], 32767 * 32767 + (-32768) * (-32768));
  EXPECT_EQ(c[1], 32767 * (-32768) + (-32768) * 32767);
}

TEST(IGemmTest, MostlySparseSignalsStayExact) {
  // Quant-serving signals are mostly zero after ReLU + M-bit rounding;
  // the zero-skip fast path must not change results.
  Rng rng(77);
  const int64_t m = 24, k = 96, n = 40;
  auto a = random_i16(m * k, 15, rng);
  for (size_t i = 0; i < a.size(); ++i) {
    if (i % 5 != 0) a[i] = 0;  // 80% sparse
  }
  const auto b = random_i16(k * n, 8, rng);
  std::vector<int32_t> want(static_cast<size_t>(m * n), 0);
  naive_igemm_acc(a.data(), b.data(), want.data(), m, k, n);
  std::vector<int32_t> got(static_cast<size_t>(m * n), 0);
  igemm(a.data(), b.data(), got.data(), m, k, n);
  EXPECT_EQ(got, want);
}

struct ConvGeometry {
  int64_t channels, height, width, kernel, stride, pad, m;
};

// The int16 im2col matrix of a signal image, via the float nn::im2col.
std::vector<int16_t> im2col_i16(const std::vector<int16_t>& image,
                                const ConvGeometry& g, int64_t* k_out,
                                int64_t* n_out) {
  const int64_t out_h = conv_out_extent(g.height, g.kernel, g.stride, g.pad);
  const int64_t out_w = conv_out_extent(g.width, g.kernel, g.stride, g.pad);
  const int64_t k = g.channels * g.kernel * g.kernel;
  const int64_t n = out_h * out_w;
  const std::vector<float> fimage(image.begin(), image.end());
  std::vector<float> cols(static_cast<size_t>(k * n));
  im2col(fimage.data(), g.channels, g.height, g.width, g.kernel, g.kernel,
         g.stride, g.pad, cols.data());
  *k_out = k;
  *n_out = n;
  return std::vector<int16_t>(cols.begin(), cols.end());
}

using IConvFn = void (*)(const ConvReadPlan&, const int32_t*, int64_t,
                         const int16_t*, int32_t*);

struct IConvTier {
  std::string name;
  IConvFn read;
};

// Every compiled tier of the integer conv read this CPU runs, called
// directly: the AVX2 tier runs on AVX-512 hosts too.
std::vector<IConvTier> iconv_tiers() {
  std::vector<IConvTier> tiers = {{"scalar", &kernels::scalar_igemm_conv}};
  if (simd::cpu_has_avx2()) {
    tiers.push_back({"avx2", &kernels::avx2_igemm_conv});
  }
  if (simd::cpu_has_avx512()) {
    tiers.push_back({"avx512", &kernels::avx512_igemm_conv});
  }
  return tiers;
}

// igemm_conv through the dispatch (SIMD and forced scalar) and every tier
// directly, each against the int16 im2col matrix times W by the naive
// loop.
void check_igemm_conv(const ConvGeometry& g, const std::vector<int16_t>& image,
                      const std::vector<int16_t>& w) {
  int64_t k = 0, n = 0;
  const std::vector<int16_t> cols = im2col_i16(image, g, &k, &n);
  std::vector<int32_t> want(static_cast<size_t>(g.m * n), 0);
  naive_igemm_acc(w.data(), cols.data(), want.data(), g.m, k, n);

  const ConvReadPlan plan = make_conv_read_plan(
      g.channels, g.height, g.width, g.kernel, g.stride, g.pad);
  ASSERT_EQ(plan.positions, n);
  const IConvWeights packed(w.data(), g.m, k);
  util::aligned_vector<int16_t> plane(
      static_cast<size_t>(iconv_plane_int16s(plan)), -1);
  fill_iconv_plane(plan, image.data(), plane.data());
  for (bool force_scalar : {false, true}) {
    ForceScalarGuard guard(force_scalar);
    std::vector<int32_t> got(static_cast<size_t>(g.m * n), -7);
    igemm_conv(plan, packed, plane.data(), got.data());
    EXPECT_EQ(got, want) << "dispatch, force_scalar=" << force_scalar;
  }
  for (const IConvTier& tier : iconv_tiers()) {
    std::vector<int32_t> got(static_cast<size_t>(g.m * n), -7);
    tier.read(plan, packed.pairs(), g.m, plane.data(), got.data());
    EXPECT_EQ(got, want) << tier.name;
  }
}

// Stride 1 and 2, padding, odd patches (a pair tail, k = 1 included),
// output rows narrower than a lane group (groups of three or more rows,
// which gather) next to one- and two-run groups, last groups of 1..7 live
// lanes, more channels than one register block and more row pairs than
// one chunk, and the lenet-mini shapes.
class IGemmConvTest : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(IGemmConvTest, MatchesIm2colThenIgemmOnEveryPath) {
  const ConvGeometry g = GetParam();
  Rng rng(g.channels * 131 + g.height * 17 + g.kernel * 5 + g.stride + g.pad);
  std::vector<int16_t> image = random_i16(g.channels * g.height * g.width,
                                          15, rng);
  for (auto& x : image) x = static_cast<int16_t>(std::abs(x));
  for (size_t i = 0; i < image.size(); i += 2) image[i] = 0;  // sparse
  const auto w = random_i16(g.m * g.channels * g.kernel * g.kernel, 127, rng);
  check_igemm_conv(g, image, w);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, IGemmConvTest,
    ::testing::Values(ConvGeometry{1, 28, 28, 5, 1, 2, 6},   // lenet conv1
                      ConvGeometry{6, 14, 14, 5, 1, 0, 12},  // lenet conv2
                      ConvGeometry{3, 7, 9, 3, 1, 1, 5},     // odd patch 27
                      ConvGeometry{2, 11, 10, 3, 2, 1, 4},   // stride 2
                      ConvGeometry{3, 9, 3, 3, 1, 0, 7},     // out_w 1
                      ConvGeometry{1, 6, 5, 2, 1, 0, 3},     // out_w 4
                      ConvGeometry{4, 5, 5, 5, 1, 0, 9},     // one output
                      ConvGeometry{2, 8, 8, 1, 1, 0, 5},     // 1x1, k 2
                      ConvGeometry{2, 9, 7, 3, 1, 0, 6},     // out_w 5
                      ConvGeometry{2, 5, 5, 3, 1, 1, 4},     // out_w 5, 25
                      ConvGeometry{1, 9, 9, 3, 1, 0, 4},     // 49: 1 live
                      ConvGeometry{1, 6, 6, 1, 1, 0, 3},     // k 1
                      ConvGeometry{2, 6, 6, 3, 1, 1, 29},    // 29 channels
                      ConvGeometry{8, 6, 6, 3, 1, 1, 4},     // 36 pairs
                      ConvGeometry{2, 10, 10, 5, 2, 2, 3}),  // stride 2, pad 2
    [](const ::testing::TestParamInfo<ConvGeometry>& info) {
      const ConvGeometry& g = info.param;
      return (::testing::Message()
              << "c" << g.channels << "_" << g.height << "x" << g.width
              << "_k" << g.kernel << "_s" << g.stride << "_p" << g.pad << "_m"
              << g.m)
          .GetString();
    });

// int16 extremes on either operand at the edge of the overflow contract
// (max|W| * max|image| * k < 2^31, k = 150): every vpmaddwd pair sum and
// every partial sum stays in int32.
TEST(IGemmConvTest, EveryTierHandlesInt16ExtremesWithinContract) {
  const ConvGeometry g{6, 14, 14, 5, 1, 0, 12};  // lenet conv2
  const int64_t k = g.channels * g.kernel * g.kernel;
  const int16_t bound = static_cast<int16_t>(((int64_t{1} << 31) - 1) /
                                             (int64_t{32768} * k));
  Rng rng(77);
  const auto pick = [&](std::vector<int16_t>& v, int16_t lo, int16_t hi) {
    for (auto& x : v) {
      const float u = rng.uniform(0.0f, 1.0f);
      x = u < 0.2f ? int16_t{0} : u < 0.6f ? lo : hi;
    }
  };
  std::vector<int16_t> image(static_cast<size_t>(g.channels * g.height *
                                                 g.width));
  std::vector<int16_t> w(static_cast<size_t>(g.m * k));
  pick(image, -32768, 32767);
  pick(w, static_cast<int16_t>(-bound), bound);
  check_igemm_conv(g, image, w);
  pick(image, static_cast<int16_t>(-bound), bound);
  pick(w, -32768, 32767);
  check_igemm_conv(g, image, w);
}

}  // namespace
}  // namespace qsnc::nn
