// True integer GEMM for the quantized serving paths.
//
// The paper's deployment arithmetic is M-bit unsigned spike-count signals
// against N-bit fixed-point weights; both fit int16 with room to spare, so
// the product sums are computed exactly in int32 accumulators and
// requantized once at the end by the caller (core/int_quant_engine.*). Integer accumulation is associative, so — unlike the
// fp32 kernels — every schedule (scalar, AVX2 vpmaddwd, any thread count)
// is bit-identical by construction; tests still pin it.
//
// Overflow contract (checked by callers via the dynamic-fixed-point rules
// in core/dynamic_fixed_point.h): max|A| * max|B| * k < 2^31.
#pragma once

#include <cstdint>

#include "util/aligned.h"

namespace qsnc::nn {

/// C[m x n] (int32) = A[m x k] (int16) * B[k x n] (int16), row-major.
void igemm(const int16_t* a, const int16_t* b, int32_t* c, int64_t m,
           int64_t k, int64_t n);

/// C[m x n] += A[m x k] * B[k x n].
void igemm_acc(const int16_t* a, const int16_t* b, int32_t* c, int64_t m,
               int64_t k, int64_t n);

/// One image's convolution as an integer GEMM:
///   C[m x out_h*out_w] (int32) = W[m x patch] (int16) * cols
/// where cols is nn::im2col's [channels*kernel*kernel x out_h*out_w]
/// matrix of `image` [channels x height x width] (padding taps read 0)
/// and W is the row-major OIHW weight matrix. The AVX2 path gathers the
/// image straight into the pack_ib_panel layout of cols, with no
/// intermediate matrix; the scalar path builds the int16 cols and runs the
/// scalar loop. Overflow contract as igemm with k = patch.
void igemm_conv(const int16_t* w, const int16_t* image, int64_t channels,
                int64_t height, int64_t width, int64_t kernel, int64_t stride,
                int64_t pad, int64_t m, int32_t* c);

/// B operand packed once and reused across calls (static layer weights).
/// Keeps both the raw row-major copy (scalar path) and the vpmaddwd panel
/// (AVX2 path), so dispatch may flip per call without repacking.
class IGemmPackedB {
 public:
  IGemmPackedB() = default;

  /// Packs row-major B[k x n].
  IGemmPackedB(const int16_t* b, int64_t k, int64_t n);

  int64_t k() const { return k_; }
  int64_t n() const { return n_; }
  bool empty() const { return k_ == 0 && n_ == 0; }

  const int16_t* raw() const { return raw_.data(); }
  const int16_t* panel() const { return panel_.data(); }

 private:
  int64_t k_ = 0;
  int64_t n_ = 0;
  util::aligned_vector<int16_t> raw_;
  util::aligned_vector<int16_t> panel_;
};

/// C[m x n] = A[m x k] * B using a prepacked right operand.
void igemm_prepacked(const int16_t* a, const IGemmPackedB& b, int32_t* c,
                     int64_t m);

}  // namespace qsnc::nn
