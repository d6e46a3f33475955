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

// Stride 1 and 2, padding, odd patches (odd k pairs), out_hw not a multiple
// of 16, and output rows narrower than a 16-lane tile (the per-lane gather
// fallback) next to the lenet-mini shapes.
class IGemmConvTest : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(IGemmConvTest, MatchesIm2colThenIgemmOnEveryPath) {
  const ConvGeometry g = GetParam();
  Rng rng(g.channels * 131 + g.height * 17 + g.kernel * 5 + g.stride + g.pad);
  std::vector<int16_t> image = random_i16(g.channels * g.height * g.width,
                                          15, rng);
  for (auto& x : image) x = static_cast<int16_t>(std::abs(x));
  for (size_t i = 0; i < image.size(); i += 2) image[i] = 0;  // sparse
  const auto w = random_i16(g.m * g.channels * g.kernel * g.kernel, 127, rng);

  int64_t k = 0, n = 0;
  const std::vector<int16_t> cols = im2col_i16(image, g, &k, &n);
  std::vector<int32_t> want(static_cast<size_t>(g.m * n), 0);
  naive_igemm_acc(w.data(), cols.data(), want.data(), g.m, k, n);

  for (bool force_scalar : {false, true}) {
    ForceScalarGuard guard(force_scalar);
    std::vector<int32_t> got(static_cast<size_t>(g.m * n), -7);
    igemm_conv(w.data(), image.data(), g.channels, g.height, g.width,
               g.kernel, g.stride, g.pad, g.m, got.data());
    EXPECT_EQ(got, want) << "force_scalar=" << force_scalar;
  }
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
                      ConvGeometry{2, 8, 8, 1, 1, 0, 5}),    // 1x1, k 2
    [](const ::testing::TestParamInfo<ConvGeometry>& info) {
      const ConvGeometry& g = info.param;
      return (::testing::Message()
              << "c" << g.channels << "_" << g.height << "x" << g.width
              << "_k" << g.kernel << "_s" << g.stride << "_p" << g.pad << "_m"
              << g.m)
          .GetString();
    });

// The AVX2 gather must emit exactly pack_ib_panel's layout, zero padding
// included, not just a panel whose live lanes happen to give the same C.
TEST(IGemmConvTest, GatherPanelEqualsPackedIm2col) {
  if (!simd::use_avx2()) GTEST_SKIP() << "AVX2 kernels inactive";
  for (const ConvGeometry& g : {ConvGeometry{3, 7, 9, 3, 1, 1, 1},
                                ConvGeometry{1, 28, 28, 5, 1, 2, 1},
                                ConvGeometry{2, 11, 10, 3, 2, 1, 1},
                                ConvGeometry{3, 9, 3, 3, 1, 0, 1}}) {
    Rng rng(g.height * 7 + g.width);
    std::vector<int16_t> image = random_i16(g.channels * g.height * g.width,
                                            15, rng);
    int64_t k = 0, n = 0;
    const std::vector<int16_t> cols = im2col_i16(image, g, &k, &n);
    util::aligned_vector<int16_t> want(
        static_cast<size_t>(kernels::ib_panel_int16s(k, n)));
    kernels::pack_ib_panel(cols.data(), k, n, want.data());

    // Offsets into the image zero-padded by g.pad, as igemm_conv builds it.
    const int64_t hp = g.height + 2 * g.pad, wp = g.width + 2 * g.pad;
    const int64_t slack = kernels::kGatherSlack;
    std::vector<int16_t> padded(
        static_cast<size_t>(g.channels * hp * wp + 2 * slack), 0);
    for (int64_t c = 0; c < g.channels; ++c) {
      for (int64_t y = 0; y < g.height; ++y) {
        for (int64_t x = 0; x < g.width; ++x) {
          padded[static_cast<size_t>(slack + (c * hp + y + g.pad) * wp + x +
                                     g.pad)] =
              image[static_cast<size_t>((c * g.height + y) * g.width + x)];
        }
      }
    }
    const int64_t out_w = conv_out_extent(g.width, g.kernel, g.stride, g.pad);
    std::vector<int32_t> row_off, col_off;
    for (int64_t kk = 0; kk < k; ++kk) {
      const int64_t c = kk / (g.kernel * g.kernel);
      const int64_t ky = kk / g.kernel % g.kernel, kx = kk % g.kernel;
      row_off.push_back(static_cast<int32_t>((c * hp + ky) * wp + kx));
    }
    for (int64_t j = 0; j < n; ++j) {
      col_off.push_back(
          static_cast<int32_t>((j / out_w * wp + j % out_w) * g.stride));
    }
    util::aligned_vector<int16_t> got(want.size(), -1);
    kernels::avx2_pack_gather_panel(padded.data() + slack, row_off.data(), k,
                                    col_off.data(), n, got.data());
    EXPECT_EQ(got, want) << "geometry " << g.channels << "x" << g.height
                         << "x" << g.width << " k" << g.kernel;
  }
}

}  // namespace
}  // namespace qsnc::nn
