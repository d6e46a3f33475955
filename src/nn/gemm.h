// Minimal single-threaded GEMM kernels used by the convolution and dense
// layers. Not a BLAS replacement: the goal is a dependency-free, cache-aware
// matrix multiply fast enough to train the mini model zoo on one CPU core.
#pragma once

#include <cstdint>

namespace qsnc::nn {

/// C[m x n] = A[m x k] * B[k x n]  (row-major, C overwritten).
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n);

/// C[m x n] += A[m x k] * B[k x n]  (row-major, accumulate into C).
void gemm_acc(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n);

/// C[m x n] += A^T[m x k] * B[k x n] where A is stored [k x m] row-major.
void gemm_at_b_acc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

/// C[m x n] += A[m x k] * B^T[k x n] where B is stored [n x k] row-major.
void gemm_a_bt_acc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

/// Batched sparse row drive in double precision: the collapsed ideal read
/// of the SNC crossbar runner. `drives` is image-minor ([slot x batch]);
/// event e drives panel row rows[e] with image b's value
/// drives[srcs[e] * batch + b]. For every image b and column c < width:
///   acc[b * width + c] = sum over e ascending of
///       drives[srcs[e] * batch + b] * panel[rows[e] * width + c]
/// starting from +0.0 (acc is overwritten). Each term is a separate
/// multiply and add, so the SIMD tiers — register tiles of up to 8 images
/// (AVX-512, 3 zmm column vectors) or 4 images (AVX2, 3 ymm) that share
/// each panel-row load across the tile's images — are bit-identical to the
/// scalar loop. A zero drive adds
/// a signed zero, which leaves a sum that started at +0.0 unchanged, so
/// with finite panel entries the result equals the sum over the nonzero
/// drives alone.
void accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                           int64_t n_events, const double* drives,
                           int64_t batch, const double* panel, int64_t width,
                           double* acc);

/// Constants of one crossbar stage's read epilogue.
struct ReadEpilogue {
  int64_t cols = 0;             // logical columns (acc rows hold 2 * cols)
  double dg = 1.0;              // differential conductance of one level
  double step = 1.0;            // weight units per level
  const float* bias = nullptr;  // [cols]
  bool rectify = false;         // clamp counts to [0, ceiling]
  int64_t ceiling = 0;
};

/// The SNC collapsed read's epilogue over n accumulator rows, row i at
/// acc + i * acc_stride holding interleaved (plus, minus) column sums as
/// accumulate_rows_batch leaves them. For every row i and column c:
///   y = step * ((acc[2c] - acc[2c + 1]) / dg) + bias[c]
///   counts[c * count_stride + i] = floor(y + 0.5), clamped to
///       [0, ceiling] when rectify, else to the int32 range
/// — core::round_half_up operation for operation, saturated to int32. When
/// y_out is non-null, y_out[c] receives each row's y in turn (the last
/// row's remain). The SIMD tiers round with vroundpd / vrndscalepd and the
/// scalar path with std::floor, and all clamp in double before the one
/// conversion; every step is exact, so every dispatch agrees bit for bit.
void read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                   const ReadEpilogue& ep, int32_t* counts,
                   int64_t count_stride, double* y_out);

}  // namespace qsnc::nn
