// True integer GEMM for the quantized serving paths.
//
// The paper's deployment arithmetic is M-bit unsigned spike-count signals
// against N-bit fixed-point weights; both fit int16 with room to spare, so
// the product sums are computed exactly in int32 accumulators and
// requantized once at the end by the caller (core/int_quant_engine.*).
// Integer accumulation is associative, so — unlike the fp32 kernels —
// every schedule (scalar, AVX2 or AVX-512 vpmaddwd, any thread count) is
// bit-identical by construction; tests still pin it.
//
// Overflow contract (checked by callers via the dynamic-fixed-point rules
// in core/dynamic_fixed_point.h): max|A| * max|B| * k < 2^31.
#pragma once

#include <cstdint>

#include "nn/gemm.h"
#include "util/aligned.h"

namespace qsnc::nn {

/// C[m x n] (int32) = A[m x k] (int16) * B[k x n] (int16), row-major.
void igemm(const int16_t* a, const int16_t* b, int32_t* c, int64_t m,
           int64_t k, int64_t n);

/// C[m x n] += A[m x k] * B[k x n].
void igemm_acc(const int16_t* a, const int16_t* b, int32_t* c, int64_t m,
               int64_t k, int64_t n);

/// A conv layer's int16 weights W[m x k] (row-major OIHW, so k = in_c *
/// kernel * kernel is the receptive field's crossbar rows), packed once
/// for igemm_conv: the weight pair p of output channel oc, (W[oc][2p],
/// W[oc][2p+1]) — an odd k's last weight paired with 0 — is one int32,
/// low half first, at pairs()[p * m + oc]. vpmaddwd multiplies a
/// broadcast pair by a vector of the positions' (row 2p, row 2p+1) drive
/// pairs, and one row pair's m broadcasts sit side by side.
class IConvWeights {
 public:
  IConvWeights() = default;
  IConvWeights(const int16_t* w, int64_t m, int64_t k);

  int64_t m() const { return m_; }
  const int32_t* pairs() const { return pairs_.data(); }

 private:
  int64_t m_ = 0;
  util::aligned_vector<int32_t> pairs_;
};

/// int16 entries of one image's padded plane for igemm_conv: the plan's
/// in_c planes of plane_h x plane_w, then kConvLanes zeros that the SIMD
/// tiers may load past the plane's end (and multiply into no live lane).
int64_t iconv_plane_int16s(const ConvReadPlan& plan);

/// Writes one image's zero-padded int16 plane (iconv_plane_int16s(plan)
/// entries, every one written), laid out as nn::fill_conv_plane's:
/// image[(c * in_h + y) * in_w + x] lands at
/// plane[(c * plane_h + y + pad) * plane_w + x + pad].
void fill_iconv_plane(const ConvReadPlan& plan, const int16_t* image,
                      int16_t* plane);

/// One image's convolution, read with output positions in the SIMD lanes:
///   C[oc * plan.positions + p] (int32) =
///       sum over r of W[oc][r] * plane[plan.origin(p) + plan.taps[r]]
/// for every output channel oc < w.m() and position p, where `plane` is
/// fill_iconv_plane's and `w` was packed with k = plan.rows(); C is
/// overwritten. Both this and nn::conv_read take their geometry from one
/// ConvReadPlan. Per lane group (two per zmm on the AVX-512 tier, one per
/// ymm on AVX2) each row pair of the receptive field is loaded from the
/// plane as one or more contiguous runs, or gathered, interleaved once
/// into int16 pairs, and multiplied by each channel's broadcast weight
/// pair into one int32 accumulator per channel, stored with one masked
/// store. Overflow contract as igemm with k = plan.rows().
void igemm_conv(const ConvReadPlan& plan, const IConvWeights& w,
                const int16_t* plane, int32_t* c);

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
