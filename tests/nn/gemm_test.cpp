#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/fixed_point.h"
#include "nn/im2col.h"
#include "nn/gemm_kernels.h"
#include "nn/rng.h"
#include "nn/simd.h"

namespace qsnc::nn {
namespace {

// Reference triple loop.
void naive_gemm(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

std::vector<float> random_vec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

TEST(GemmTest, TinyKnownResult) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4);
  gemm(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

struct GemmShape {
  int64_t m, k, n;
};

class GemmShapeTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapeTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> got(static_cast<size_t>(m * n));
  std::vector<float> want(static_cast<size_t>(m * n));
  gemm(a.data(), b.data(), got.data(), m, k, n);
  naive_gemm(a.data(), b.data(), want.data(), m, k, n);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 2},
                      GemmShape{16, 16, 16}, GemmShape{65, 129, 33},
                      GemmShape{128, 64, 300}, GemmShape{1, 500, 7},
                      GemmShape{70, 1, 70}));

TEST(GemmTest, AccAccumulatesOntoExisting) {
  const std::vector<float> a{1, 0, 0, 1};  // identity
  const std::vector<float> b{2, 3, 4, 5};
  std::vector<float> c{10, 10, 10, 10};
  gemm_acc(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 12);
  EXPECT_FLOAT_EQ(c[3], 15);
}

TEST(GemmTest, SkipsZeroActivationRows) {
  // Correctness with many zeros (the sparse-signal fast path).
  Rng rng(5);
  std::vector<float> a = random_vec(8 * 16, rng);
  for (size_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;
  const auto b = random_vec(16 * 8, rng);
  std::vector<float> got(64), want(64);
  gemm(a.data(), b.data(), got.data(), 8, 16, 8);
  naive_gemm(a.data(), b.data(), want.data(), 8, 16, 8);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-4f);
}

TEST(GemmTest, AtBMatchesExplicitTranspose) {
  Rng rng(9);
  const int64_t m = 13, k = 7, n = 11;
  const auto a_t = random_vec(k * m, rng);  // stored [k x m]
  const auto b = random_vec(k * n, rng);
  // Build A = (a_t)^T explicitly.
  std::vector<float> a(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) a[i * k + kk] = a_t[kk * m + i];
  }
  std::vector<float> got(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> want(static_cast<size_t>(m * n));
  gemm_at_b_acc(a_t.data(), b.data(), got.data(), m, k, n);
  naive_gemm(a.data(), b.data(), want.data(), m, k, n);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-4f);
}

TEST(GemmTest, ABtMatchesExplicitTranspose) {
  Rng rng(10);
  const int64_t m = 6, k = 9, n = 4;
  const auto a = random_vec(m * k, rng);
  const auto b_t = random_vec(n * k, rng);  // stored [n x k]
  std::vector<float> b(static_cast<size_t>(k * n));
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) b[kk * n + j] = b_t[j * k + kk];
  }
  std::vector<float> got(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> want(static_cast<size_t>(m * n));
  gemm_a_bt_acc(a.data(), b_t.data(), got.data(), m, k, n);
  naive_gemm(a.data(), b.data(), want.data(), m, k, n);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-4f);
}

// ---------------------------------------------------------------------------
// SIMD vs scalar bit-exactness.
//
// The AVX2 micro-kernels must reproduce the scalar reference loops
// bit-for-bit (gemm_kernels.h documents why that is possible). Each case
// below runs every GEMM variant twice — once with the scalar path forced,
// once with normal dispatch — and memcmps the outputs. On hosts without
// AVX2 (or under QSNC_FORCE_SCALAR=1; see the *_forced_scalar ctest
// registration) both runs take the scalar path and the comparison is
// trivially exact, so the suite is portable.
// ---------------------------------------------------------------------------

class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force) : prev_(simd::set_force_scalar(force)) {}
  ~ForceScalarGuard() { simd::set_force_scalar(prev_); }

 private:
  bool prev_;
};

void expect_bits_equal(const std::vector<float>& a,
                       const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << what << " diverges at element " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// Degenerate and odd extents: empty, single, primes off the 4x16 register
// block and the 128/256 cache blocks, plus representative zoo-like shapes.
class GemmSimdExactTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSimdExactTest, AllVariantsMatchScalarBitExactly) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 131071 + k * 8191 + n * 31 + 1);
  auto a = random_vec(m * k, rng);
  auto at = random_vec(k * m, rng);
  auto b = random_vec(k * n, rng);
  auto bt = random_vec(n * k, rng);
  const auto c0 = random_vec(m * n, rng);
  // Zero out a third of A so the zero-skip branches are exercised.
  for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  for (size_t i = 0; i < at.size(); i += 3) at[i] = 0.0f;

  struct Variant {
    const char* name;
    void (*fn)(const float*, const float*, float*, int64_t, int64_t, int64_t);
    const float* a;
    const float* b;
    bool overwrite;
  };
  const Variant variants[] = {
      {"gemm", &gemm, a.data(), b.data(), true},
      {"gemm_acc", &gemm_acc, a.data(), b.data(), false},
      {"gemm_at_b_acc", &gemm_at_b_acc, at.data(), b.data(), false},
      {"gemm_a_bt_acc", &gemm_a_bt_acc, a.data(), bt.data(), false},
  };
  for (const Variant& v : variants) {
    std::vector<float> scalar_c = c0;
    {
      ForceScalarGuard guard(true);
      v.fn(v.a, v.b, scalar_c.data(), m, k, n);
    }
    std::vector<float> simd_c = c0;
    v.fn(v.a, v.b, simd_c.data(), m, k, n);
    expect_bits_equal(scalar_c, simd_c, v.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegenerateAndOddShapes, GemmSimdExactTest,
    ::testing::Values(GemmShape{0, 0, 0}, GemmShape{0, 5, 3},
                      GemmShape{5, 0, 3}, GemmShape{5, 3, 0},
                      GemmShape{1, 1, 1}, GemmShape{1, 7, 1},
                      GemmShape{7, 1, 13}, GemmShape{3, 5, 7},
                      GemmShape{5, 129, 33}, GemmShape{13, 131, 17},
                      GemmShape{31, 257, 47}, GemmShape{67, 97, 101},
                      GemmShape{97, 193, 259}),
    [](const ::testing::TestParamInfo<GemmShape>& info) {
      return (::testing::Message() << "m" << info.param.m << "_k"
                                   << info.param.k << "_n" << info.param.n)
          .GetString();
    });

INSTANTIATE_TEST_SUITE_P(
    ModelZooShapes, GemmSimdExactTest,
    ::testing::Values(GemmShape{6, 25, 784},    // lenet conv1 im2col
                      GemmShape{12, 150, 100},  // lenet conv2 im2col
                      GemmShape{64, 288, 64},   // alexnet conv3 im2col
                      GemmShape{64, 300, 16},   // dense head batch
                      GemmShape{8, 512, 33},    // split-k dW shape
                      GemmShape{128, 96, 64}),  // wide-M dW shape
    [](const ::testing::TestParamInfo<GemmShape>& info) {
      return (::testing::Message() << "m" << info.param.m << "_k"
                                   << info.param.k << "_n" << info.param.n)
          .GetString();
    });

TEST(GemmSimdDispatchTest, EnvForcedScalarDisablesAvx2) {
  if (simd::env_forced_scalar()) {
    EXPECT_FALSE(simd::use_avx2());
  } else if (simd::cpu_has_avx2()) {
    EXPECT_TRUE(simd::use_avx2());
  } else {
    EXPECT_FALSE(simd::use_avx2());
  }
}

TEST(GemmSimdDispatchTest, ForceScalarOverrideWinsAndRestores) {
  const bool before = simd::use_avx2();
  {
    ForceScalarGuard guard(true);
    EXPECT_FALSE(simd::use_avx2());
  }
  EXPECT_EQ(simd::use_avx2(), before);
}

// ---------------------------------------------------------------------------
// The SNC collapsed read: the fp64 batched row drive and its epilogue.
// ---------------------------------------------------------------------------

// Naive batched row drive: per image, ascending events from +0.0, one
// std::fma per term (the read's numeric model, nn::crossbar_mac).
std::vector<double> naive_accumulate(const std::vector<int32_t>& rows,
                                     const std::vector<int32_t>& srcs,
                                     const std::vector<double>& drives,
                                     int64_t batch,
                                     const std::vector<double>& panel,
                                     int64_t width) {
  std::vector<double> acc(static_cast<size_t>(batch * width), 0.0);
  for (int64_t b = 0; b < batch; ++b) {
    for (size_t e = 0; e < rows.size(); ++e) {
      const double v = drives[static_cast<size_t>(srcs[e] * batch + b)];
      for (int64_t c = 0; c < width; ++c) {
        double& a = acc[static_cast<size_t>(b * width + c)];
        a = std::fma(v, panel[static_cast<size_t>(rows[e] * width + c)], a);
      }
    }
  }
  return acc;
}

void expect_double_bits_equal(const std::vector<double>& got,
                              const std::vector<double>& want,
                              const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " diverges at element " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

// Batch sizes that fill, split and overhang both image tiles (4 on AVX2,
// 8 on AVX-512).
const int64_t kAccumulateBatches[] = {1, 3, 4, 5, 7, 8, 9, 16, 17};

using AccumulateFn = void (*)(const int32_t*, const int32_t*, int64_t,
                              const double*, int64_t, const double*, int64_t,
                              double*);
using EpilogueFn = void (*)(const double*, int64_t, int64_t,
                            const ReadEpilogue&, int32_t*, int64_t, double*);

// One way to reach the row drive and the epilogue: the dispatching entry
// points, or one compiled tier called directly.
struct ReadTier {
  std::string name;
  AccumulateFn accumulate;
  EpilogueFn epilogue;
};

// The dispatch plus every compiled tier below AVX-512 this CPU runs, so
// the AVX2 tile stays tested on an AVX-512 host; the AVX-512 tier has its
// own cases that skip without CPU support.
std::vector<ReadTier> tiers_below_avx512() {
  std::vector<ReadTier> tiers = {
      {"dispatch", &accumulate_rows_batch, &read_epilogue},
      {"scalar", &kernels::scalar_accumulate_rows_batch,
       &kernels::scalar_read_epilogue}};
  if (simd::cpu_has_avx2() && simd::cpu_has_fma()) {
    tiers.push_back({"avx2", &kernels::avx2_accumulate_rows_batch,
                     &kernels::avx2_read_epilogue});
  }
  return tiers;
}

const ReadTier kAvx512Tier = {"avx512",
                              &kernels::avx512_accumulate_rows_batch,
                              &kernels::avx512_read_epilogue};

// Every width from 2 to 50 (multiples of 4, 8 and 12 and everything in
// between, so every tile shape and masked tail runs) at batch sizes that
// fill, split and overhang the image tiles. Drives are spike-count-like
// with many zeros, slot 0 is the all-zero padding slot, and the last image
// never fires, so its sums must stay +0.0 despite negative panel entries.
void check_accumulate_matches_naive(const ReadTier& tier) {
  const int64_t panel_rows = 37;
  const int64_t slots = 11;
  for (int64_t width = 2; width <= 50; ++width) {
    for (const int64_t batch : kAccumulateBatches) {
      Rng rng(static_cast<uint64_t>(width * 131 + batch));
      std::vector<double> panel(static_cast<size_t>(panel_rows * width));
      for (double& g : panel) g = rng.uniform(-1.0f, 1.0f) * 1e-4;
      std::vector<double> drives(static_cast<size_t>(slots * batch), 0.0);
      for (int64_t s = 1; s < slots; ++s) {
        for (int64_t b = 0; b + 1 < batch; ++b) {
          const int64_t v = static_cast<int64_t>(rng.uniform(-4.0f, 16.0f));
          drives[static_cast<size_t>(s * batch + b)] =
              static_cast<double>(std::max<int64_t>(v, 0));
        }
      }
      std::vector<int32_t> rows;
      std::vector<int32_t> srcs;
      for (int32_t r = 0; r < panel_rows; ++r) {
        if (rng.uniform(0.0f, 1.0f) < 0.3f) continue;
        rows.push_back(r);
        srcs.push_back(static_cast<int32_t>(
            rng.uniform(0.0f, static_cast<float>(slots)) * 0.999f));
      }
      const std::vector<double> want =
          naive_accumulate(rows, srcs, drives, batch, panel, width);
      std::vector<double> got(static_cast<size_t>(batch * width), -7.0);
      tier.accumulate(rows.data(), srcs.data(),
                      static_cast<int64_t>(rows.size()), drives.data(), batch,
                      panel.data(), width, got.data());
      expect_double_bits_equal(got, want,
                               "width " + std::to_string(width) + " batch " +
                                   std::to_string(batch) + " " + tier.name);
    }
  }
}

void check_empty_event_list(const ReadTier& tier) {
  const std::vector<double> panel(4 * 50, 3.0);
  for (const int64_t width : {2, 12, 13, 50}) {
    for (const int64_t batch : kAccumulateBatches) {
      std::vector<double> acc(static_cast<size_t>(batch * width), -1.0);
      tier.accumulate(nullptr, nullptr, 0, nullptr, batch, panel.data(),
                      width, acc.data());
      expect_double_bits_equal(acc, std::vector<double>(acc.size(), 0.0),
                               "width " + std::to_string(width) + " batch " +
                                   std::to_string(batch) + " " + tier.name);
    }
  }
}

TEST(AccumulateRowsBatchTest, MatchesNaiveLoopBitExact) {
  for (const ReadTier& tier : tiers_below_avx512()) {
    check_accumulate_matches_naive(tier);
  }
}

TEST(AccumulateRowsBatchTest, EmptyEventListZeroesAccumulator) {
  for (const ReadTier& tier : tiers_below_avx512()) {
    check_empty_event_list(tier);
  }
}

TEST(AccumulateRowsBatchTest, Avx512TileMatchesNaiveLoopBitExact) {
  if (!simd::cpu_has_avx512()) GTEST_SKIP() << "no AVX-512 F/VL/DQ";
  check_accumulate_matches_naive(kAvx512Tier);
  check_empty_event_list(kAvx512Tier);
}

// One epilogue case: the y each (row, column) must produce, through
// acc = (plus, minus) pairs, and the count core::round_half_up gives it.
struct EpilogueCase {
  std::vector<double> plus;   // [rows x cols]
  std::vector<double> minus;  // [rows x cols]
  std::vector<float> bias;    // [cols]
  double dg;
  double step;
};

void check_epilogue(const EpilogueCase& ec, int64_t n, int64_t cols,
                    bool rectify, const std::string& what,
                    const std::vector<ReadTier>& tiers) {
  const int64_t ceiling = 15;
  const int64_t acc_stride = 2 * cols + 3;  // rows need not be packed
  const int64_t count_stride = n + 2;
  std::vector<double> acc(static_cast<size_t>(n * acc_stride), 99.0);
  std::vector<int32_t> want_counts(static_cast<size_t>(cols * count_stride),
                                   -1);
  std::vector<double> want_y(static_cast<size_t>(cols));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < cols; ++c) {
      const size_t e = static_cast<size_t>(i * cols + c);
      acc[static_cast<size_t>(i * acc_stride + 2 * c)] = ec.plus[e];
      acc[static_cast<size_t>(i * acc_stride + 2 * c + 1)] = ec.minus[e];
      const double y =
          ec.step * ((ec.plus[e] - ec.minus[e]) / ec.dg) +
          static_cast<double>(ec.bias[static_cast<size_t>(c)]);
      // Rectified counts clamp to the ceiling, raw ones saturate at the
      // int32 range.
      const int64_t k = std::clamp<int64_t>(
          core::round_half_up(y), rectify ? 0 : INT32_MIN,
          rectify ? ceiling : INT32_MAX);
      want_counts[static_cast<size_t>(c * count_stride + i)] =
          static_cast<int32_t>(k);
      if (i == n - 1) want_y[static_cast<size_t>(c)] = y;
    }
  }
  ReadEpilogue ep;
  ep.cols = cols;
  ep.dg = ec.dg;
  ep.step = ec.step;
  ep.bias = ec.bias.data();
  ep.rectify = rectify;
  ep.ceiling = ceiling;
  for (const ReadTier& tier : tiers) {
    const std::string ctx =
        what + (rectify ? " rectified " : " raw ") + tier.name;
    std::vector<int32_t> counts(want_counts.size(), -1);
    std::vector<double> y(static_cast<size_t>(cols), -5.0);
    tier.epilogue(acc.data(), n, acc_stride, ep, counts.data(), count_stride,
                  y.data());
    EXPECT_EQ(counts, want_counts) << ctx;
    expect_double_bits_equal(y, want_y, ctx + " y");
    // Without a y output only the counts are written.
    std::vector<int32_t> counts_only(want_counts.size(), -1);
    tier.epilogue(acc.data(), n, acc_stride, ep, counts_only.data(),
                  count_stride, nullptr);
    EXPECT_EQ(counts_only, want_counts) << ctx << " no y";
  }
}

// Half-integer ties k +- 0.5 (up, never to even), the largest double below
// 0.5 (whose y + 0.5 rounds to 1.0), negative y on an unrectified stage,
// -0.0 (a -0.0 bias keeps it, so y itself is -0.0), and values around and
// beyond the int32 range, which raw counts saturate to, at column counts
// that exercise full and masked vectors of both SIMD widths.
void check_ties(const std::vector<ReadTier>& tiers) {
  std::vector<double> ys;
  for (int k = -4; k <= 17; ++k) {
    ys.push_back(k - 0.5);
    ys.push_back(k + 0.5);
    ys.push_back(k);
  }
  ys.push_back(0.49999999999999994);
  ys.push_back(-0.49999999999999994);
  ys.push_back(-2.7);
  ys.push_back(-1e9);
  ys.push_back(-0.0);
  ys.push_back(2147483646.5);
  ys.push_back(2147483647.49);
  ys.push_back(2147483647.5);
  ys.push_back(-2147483648.5);
  ys.push_back(-2147483648.51);
  ys.push_back(3e9);
  ys.push_back(-3e9);
  for (const int64_t cols : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17}) {
    const int64_t n = (static_cast<int64_t>(ys.size()) + cols - 1) / cols;
    EpilogueCase ec;
    ec.dg = 1.0;
    ec.step = 1.0;
    ec.bias.assign(static_cast<size_t>(cols), -0.0f);
    for (int64_t e = 0; e < n * cols; ++e) {
      ec.plus.push_back(ys[static_cast<size_t>(e) % ys.size()]);
      ec.minus.push_back(0.0);
    }
    for (const bool rectify : {false, true}) {
      check_epilogue(ec, n, cols, rectify,
                     "ties cols " + std::to_string(cols), tiers);
    }
  }
}

TEST(ReadEpilogueTest, RoundsHalfUpLikeCore) {
  check_ties(tiers_below_avx512());
}

// Conductance-scale sums through a non-unit dg, step and bias, as the
// runner produces them.
void check_conductance_sums(const std::vector<ReadTier>& tiers) {
  for (const int64_t cols : {1, 3, 4, 6, 8, 12, 13, 16, 20}) {
    Rng rng(static_cast<uint64_t>(cols));
    const int64_t n = 9;
    EpilogueCase ec;
    ec.dg = 1.7e-5 / 8.0;
    ec.step = 0.0371;
    for (int64_t c = 0; c < cols; ++c) {
      ec.bias.push_back(rng.uniform(-2.0f, 2.0f));
    }
    for (int64_t e = 0; e < n * cols; ++e) {
      ec.plus.push_back(rng.uniform(0.0f, 1.0f) * 1e-3);
      ec.minus.push_back(rng.uniform(0.0f, 1.0f) * 1e-3);
    }
    for (const bool rectify : {false, true}) {
      check_epilogue(ec, n, cols, rectify,
                     "conductance cols " + std::to_string(cols), tiers);
    }
  }
}

TEST(ReadEpilogueTest, MatchesCoreOnConductanceSums) {
  check_conductance_sums(tiers_below_avx512());
}

void check_no_rows(const std::vector<ReadTier>& tiers) {
  const std::vector<float> bias{1.0f, 2.0f};
  ReadEpilogue ep;
  ep.cols = 2;
  ep.bias = bias.data();
  for (const ReadTier& tier : tiers) {
    std::vector<int32_t> counts{-1, -1};
    std::vector<double> y{-5.0, -5.0};
    tier.epilogue(nullptr, 0, 4, ep, counts.data(), 1, y.data());
    EXPECT_EQ(counts, (std::vector<int32_t>{-1, -1})) << tier.name;
    EXPECT_EQ(y, (std::vector<double>{-5.0, -5.0})) << tier.name;
  }
}

TEST(ReadEpilogueTest, NoRowsWritesNothing) {
  check_no_rows(tiers_below_avx512());
}

TEST(ReadEpilogueTest, Avx512MatchesCore) {
  if (!simd::cpu_has_avx512()) GTEST_SKIP() << "no AVX-512 F/VL/DQ";
  const std::vector<ReadTier> tiers = {kAvx512Tier};
  check_ties(tiers);
  check_conductance_sums(tiers);
  check_no_rows(tiers);
}

// ---------------------------------------------------------------------------
// The conv lanes read: output positions in the SIMD lanes, every tier
// against a naive std::fma loop over an explicit im2col gather.
// ---------------------------------------------------------------------------

using ConvReadFn = void (*)(const ConvReadPlan&, const double*,
                            const double*, const ReadEpilogue&, int64_t,
                            int64_t, int32_t*, double*);

struct ConvTier {
  std::string name;
  ConvReadFn read;
};

// The dispatch plus every compiled tier this CPU runs.
std::vector<ConvTier> conv_tiers() {
  std::vector<ConvTier> tiers = {{"dispatch", &conv_read},
                                 {"scalar", &kernels::scalar_conv_read}};
  if (simd::cpu_has_avx2() && simd::cpu_has_fma()) {
    tiers.push_back({"avx2", &kernels::avx2_conv_read});
  }
  if (simd::cpu_has_avx512()) {
    tiers.push_back({"avx512", &kernels::avx512_conv_read});
  }
  return tiers;
}

struct ConvGeom {
  int64_t in_c, in_h, in_w, kernel, stride, pad;
};

// Shapes whose lane groups take every load: one run (out_w a multiple of
// 8), two runs (rows of 12 or 28 positions), gathers (rows shorter than a
// group, stride 2), and a last group with dead lanes.
const ConvGeom kConvGeoms[] = {
    {1, 28, 28, 5, 1, 2},  // lenet conv1: 784 positions, two-run groups
    {2, 12, 12, 5, 1, 2},  // 144 positions, pad 2
    {3, 7, 9, 3, 1, 0},    // 5 x 7 = 35 positions, pad 0
    {2, 6, 5, 3, 1, 0},    // 4 x 3 = 12 positions: groups gather
    {2, 11, 13, 3, 2, 1},  // stride 2, 6 x 7 = 42 positions
    {1, 4, 16, 3, 1, 1},   // one-run groups, 64 positions
    {2, 10, 10, 5, 2, 2},  // stride 2, pad 2, 5 x 5 = 25 positions
};

// The naive read of one image: per position and panel column, rows
// ascending from +0.0, one std::fma per row (zero drives included), then
// the read epilogue's arithmetic (core::round_half_up, clamp).
void naive_conv_read(const ConvGeom& g, const std::vector<int32_t>& input,
                     const std::vector<double>& panel, const ReadEpilogue& ep,
                     std::vector<int32_t>& counts, std::vector<double>& y) {
  const int64_t out_h = conv_out_extent(g.in_h, g.kernel, g.stride, g.pad);
  const int64_t out_w = conv_out_extent(g.in_w, g.kernel, g.stride, g.pad);
  const int64_t positions = out_h * out_w;
  const int64_t width = 2 * ep.cols;
  counts.assign(static_cast<size_t>(ep.cols * positions), 0);
  y.assign(static_cast<size_t>(ep.cols), 0.0);
  std::vector<double> sums(static_cast<size_t>(width));
  for (int64_t pos = 0; pos < positions; ++pos) {
    std::fill(sums.begin(), sums.end(), 0.0);
    int64_t r = 0;
    for (int64_t ic = 0; ic < g.in_c; ++ic) {
      for (int64_t ky = 0; ky < g.kernel; ++ky) {
        for (int64_t kx = 0; kx < g.kernel; ++kx, ++r) {
          const int64_t iy = pos / out_w * g.stride - g.pad + ky;
          const int64_t ix = pos % out_w * g.stride - g.pad + kx;
          const double v =
              iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w
                  ? input[static_cast<size_t>((ic * g.in_h + iy) * g.in_w +
                                              ix)]
                  : 0.0;
          for (int64_t c = 0; c < width; ++c) {
            double& s = sums[static_cast<size_t>(c)];
            s = std::fma(v, panel[static_cast<size_t>(r * width + c)], s);
          }
        }
      }
    }
    for (int64_t c = 0; c < ep.cols; ++c) {
      const double yc =
          ep.step * ((sums[static_cast<size_t>(2 * c)] -
                      sums[static_cast<size_t>(2 * c + 1)]) /
                     ep.dg) +
          static_cast<double>(ep.bias[c]);
      counts[static_cast<size_t>(c * positions + pos)] =
          static_cast<int32_t>(std::clamp<int64_t>(
              core::round_half_up(yc), ep.rectify ? 0 : INT32_MIN,
              ep.rectify ? ep.ceiling : INT32_MAX));
      if (pos == positions - 1) y[static_cast<size_t>(c)] = yc;
    }
  }
}

// Runs every tier over one case, the groups split into two calls, and
// compares counts and the last position's y bit for bit with the naive
// read.
void check_conv_case(const ConvGeom& g, const std::vector<int32_t>& input,
                     const std::vector<double>& panel, const ReadEpilogue& ep,
                     const std::string& what) {
  const ConvReadPlan plan = make_conv_read_plan(g.in_c, g.in_h, g.in_w,
                                                g.kernel, g.stride, g.pad);
  std::vector<int32_t> want_counts;
  std::vector<double> want_y;
  naive_conv_read(g, input, panel, ep, want_counts, want_y);
  ASSERT_EQ(static_cast<int64_t>(want_counts.size()),
            ep.cols * plan.positions);
  std::vector<double> plane(static_cast<size_t>(plan.plane_doubles()), -3.0);
  fill_conv_plane(plan, input.data(), plane.data());
  const int64_t n_groups = static_cast<int64_t>(plan.groups.size());
  for (const ConvTier& tier : conv_tiers()) {
    const std::string ctx = what + " " + tier.name;
    std::vector<int32_t> counts(want_counts.size(), -7);
    std::vector<double> y(static_cast<size_t>(ep.cols), -5.0);
    const int64_t mid = n_groups / 2;
    tier.read(plan, plane.data(), panel.data(), ep, 0, mid, counts.data(),
              y.data());
    tier.read(plan, plane.data(), panel.data(), ep, mid, n_groups,
              counts.data(), y.data());
    ASSERT_EQ(counts, want_counts) << ctx;
    expect_double_bits_equal(y, want_y, ctx + " y");
  }
}

// Spike-count-like inputs (about 60% zeros) or an all-zero plane, panels
// of both signs, every column count from 1 to 25 (panel widths 2 to 50:
// one and several column blocks on every tier), rectified and raw. An
// all-zero plane with a -0.0 bias reads y = +0.0 only if every sum stayed
// +0.0.
TEST(ConvReadTest, EveryTierMatchesNaiveFmaLoopBitExact) {
  for (const ConvGeom& g : kConvGeoms) {
    const int64_t rows = g.in_c * g.kernel * g.kernel;
    for (int64_t cols = 1; cols <= 25; ++cols) {
      for (const bool zero_plane : {false, true}) {
        Rng rng(static_cast<uint64_t>(cols * 977 + rows));
        std::vector<int32_t> input(
            static_cast<size_t>(g.in_c * g.in_h * g.in_w), 0);
        if (!zero_plane) {
          for (int32_t& v : input) {
            v = std::max(0, static_cast<int32_t>(rng.uniform(-10.0f, 16.0f)));
          }
        }
        std::vector<double> panel(static_cast<size_t>(rows * 2 * cols));
        for (double& p : panel) p = rng.uniform(-1.0f, 1.0f) * 1e-4;
        std::vector<float> bias(static_cast<size_t>(cols), -0.0f);
        if (!zero_plane) {
          for (float& b : bias) b = rng.uniform(-2.0f, 2.0f);
        }
        ReadEpilogue ep;
        ep.cols = cols;
        ep.dg = 1.7e-5 / 8.0;
        ep.step = 0.0037;
        ep.bias = bias.data();
        ep.ceiling = 15;
        for (const bool rectify : {false, true}) {
          ep.rectify = rectify;
          check_conv_case(g, input, panel, ep,
                          "geom " + std::to_string(g.in_h) + "x" +
                              std::to_string(g.in_w) + " s" +
                              std::to_string(g.stride) + " p" +
                              std::to_string(g.pad) + " cols " +
                              std::to_string(cols) +
                              (zero_plane ? " zero" : "") +
                              (rectify ? " rectified" : " raw"));
        }
      }
    }
  }
}

// Integer panels keep every sum exact, so with unit step and dg and no
// bias each count is its position's exact column sum: a drive read from
// the wrong lane, row or run changes a count at that position.
TEST(ConvReadTest, IntegerPanelsGiveEveryPositionsExactSums) {
  for (const ConvGeom& g : kConvGeoms) {
    const int64_t rows = g.in_c * g.kernel * g.kernel;
    for (const int64_t cols : {1, 6, 12, 16, 25}) {
      Rng rng(static_cast<uint64_t>(cols * 31 + g.in_w));
      std::vector<int32_t> input(
          static_cast<size_t>(g.in_c * g.in_h * g.in_w));
      for (int32_t& v : input) {
        v = static_cast<int32_t>(rng.uniform(0.0f, 16.0f));
      }
      std::vector<double> panel(static_cast<size_t>(rows * 2 * cols));
      for (double& p : panel) {
        p = static_cast<double>(static_cast<int>(rng.uniform(0.0f, 4.0f)));
      }
      const std::vector<float> bias(static_cast<size_t>(cols), 0.0f);
      ReadEpilogue ep;
      ep.cols = cols;
      ep.bias = bias.data();
      check_conv_case(g, input, panel, ep,
                      "integer geom " + std::to_string(g.in_h) + "x" +
                          std::to_string(g.in_w) + " cols " +
                          std::to_string(cols));
    }
  }
}

// The plan's lane groups: origins ascend, dead lanes repeat the last live
// origin, and the split classifies each group's load.
TEST(ConvReadTest, PlanClassifiesEveryGroupsLoad) {
  // 28-wide rows: groups inside a row are one run, groups across a row
  // boundary two runs; 784 positions fill every group.
  const ConvReadPlan lenet = make_conv_read_plan(1, 28, 28, 5, 1, 2);
  ASSERT_EQ(lenet.positions, 784);
  ASSERT_EQ(lenet.groups.size(), 98u);
  EXPECT_EQ(lenet.plane_w, 32);
  EXPECT_EQ(lenet.groups[0].split, 8);  // positions 0..7 of row 0
  EXPECT_EQ(lenet.groups[3].split, 4);  // positions 24..31: 4 + 4
  EXPECT_EQ(lenet.groups[3].origin[4], 32);
  // 3-wide rows: a group spans three rows and gathers.
  const ConvReadPlan narrow = make_conv_read_plan(2, 6, 5, 3, 1, 0);
  EXPECT_EQ(narrow.groups.front().split, 0);
  // 7-wide rows: two runs (7 + 1); the last group of 35 positions has 3
  // live lanes.
  const ConvReadPlan odd = make_conv_read_plan(3, 7, 9, 3, 1, 0);
  ASSERT_EQ(odd.positions, 35);
  EXPECT_EQ(odd.groups.front().split, 7);
  const ConvLaneGroup& last = odd.groups.back();
  EXPECT_EQ(last.live, 3);
  for (int j = 3; j < 8; ++j) EXPECT_EQ(last.origin[j], last.origin[2]);
  // Stride 2: lanes two apart never form a run.
  const ConvReadPlan strided = make_conv_read_plan(2, 11, 13, 3, 2, 1);
  EXPECT_EQ(strided.groups.front().split, 0);
}

}  // namespace
}  // namespace qsnc::nn
