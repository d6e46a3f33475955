// AVX-512 tier of the SNC collapsed read: the batched fp64 row drive and
// its read epilogue. This TU is the only one compiled with -mavx512f
// -mavx512vl -mavx512dq; like the AVX2 TUs it is built with -mno-fma
// -ffp-contract=off, so every term stays a separate multiply and add and
// the results are bit-identical to the scalar loops in gemm.cpp (see
// gemm_kernels.h). Vectors span columns only, so each column sum is its own
// add chain over the events in ascending order, exactly as in the scalar
// loop.
#include "nn/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <utility>

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

namespace qsnc::nn::kernels {

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

namespace {

// Widest column block, in zmm vectors, of a tile of k images: 24
// accumulators at 8 images (8 x 3), never more than 8 vectors (64 columns)
// for small tiles, so B=1 reads every lenet-mini stage in one pass.
constexpr int kMaxVecs[kEventTileImages512] = {8, 8, 8, 6, 4, 4, 3, 3};

// One register tile: kImgs images by kVecs zmm column vectors stay in
// registers across every event and are stored once at the end. Each event
// loads its panel-row vectors once (the last one under `tail`) and
// multiplies them by each image's broadcast drive. `drive` is the tile's
// first image column of the drive buffer, `row0` the panel at the block's
// first column, `out` the first image's accumulator row at that column.
// Masked-off lanes load as zero and are never stored.
template <int kImgs, int kVecs>
void event_tile(const int32_t* rows, const int32_t* srcs, int64_t n_events,
                const double* drive, int64_t batch, const double* row0,
                int64_t width, __mmask8 tail, double* out) {
  __m512d acc[kImgs][kVecs];
#pragma GCC unroll 8
  for (int i = 0; i < kImgs; ++i) {
#pragma GCC unroll 8
    for (int k = 0; k < kVecs; ++k) acc[i][k] = _mm512_setzero_pd();
  }
  for (int64_t e = 0; e < n_events; ++e) {
    const double* d = drive + static_cast<int64_t>(srcs[e]) * batch;
    const double* row = row0 + static_cast<int64_t>(rows[e]) * width;
    __m512d g[kVecs];
#pragma GCC unroll 8
    for (int k = 0; k < kVecs; ++k) {
      g[k] = k == kVecs - 1 ? _mm512_maskz_loadu_pd(tail, row + 8 * k)
                            : _mm512_loadu_pd(row + 8 * k);
    }
#pragma GCC unroll 8
    for (int i = 0; i < kImgs; ++i) {
      const __m512d v = _mm512_set1_pd(d[i]);
#pragma GCC unroll 8
      for (int k = 0; k < kVecs; ++k) {
        acc[i][k] = _mm512_add_pd(acc[i][k], _mm512_mul_pd(v, g[k]));
      }
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < kImgs; ++i) {
#pragma GCC unroll 8
    for (int k = 0; k < kVecs; ++k) {
      double* o = out + i * width + 8 * k;
      if (k == kVecs - 1) {
        _mm512_mask_storeu_pd(o, tail, acc[i][k]);
      } else {
        _mm512_storeu_pd(o, acc[i][k]);
      }
    }
  }
}

using EventTileFn = void (*)(const int32_t*, const int32_t*, int64_t,
                             const double*, int64_t, const double*, int64_t,
                             __mmask8, double*);

// kEventTiles[kImgs - 1][vecs - 1] for vecs in [1, kMaxVecs[kImgs - 1]];
// unused entries are null.
constexpr int kVecSlots = 8;
template <int kImgs, size_t... kI>
constexpr std::array<EventTileFn, kVecSlots> event_tile_row(
    std::index_sequence<kI...>) {
  return {&event_tile<kImgs, static_cast<int>(kI) + 1>...};
}
template <int kImgs>
constexpr std::array<EventTileFn, kVecSlots> event_tiles_for() {
  return event_tile_row<kImgs>(
      std::make_index_sequence<kMaxVecs[kImgs - 1]>{});
}
constexpr std::array<EventTileFn, kVecSlots>
    kEventTiles[kEventTileImages512] = {
        event_tiles_for<1>(), event_tiles_for<2>(), event_tiles_for<3>(),
        event_tiles_for<4>(), event_tiles_for<5>(), event_tiles_for<6>(),
        event_tiles_for<7>(), event_tiles_for<8>()};

// The all-lanes mask. Full-width operations whose unmasked intrinsic
// passes an undefined vector as the merge source (cvtps_pd, roundscale,
// min, max, cvttpd_epi32) use the maskz form under kAll instead: same
// instruction, and GCC 12 reports that undefined source as
// maybe-uninitialized.
constexpr __mmask8 kAll = 0xFF;

// Lanes [0, n) of an 8-lane mask, n clamped to [0, 8].
__mmask8 first_lanes(int64_t n) {
  return n >= 8 ? __mmask8{0xFF}
                : static_cast<__mmask8>((1u << std::max<int64_t>(n, 0)) - 1);
}

}  // namespace

void avx512_accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                                  int64_t n_events, const double* drives,
                                  int64_t batch, const double* panel,
                                  int64_t width, double* acc) {
  for (int64_t b0 = 0; b0 < batch; b0 += kEventTileImages512) {
    const int64_t imgs = std::min(kEventTileImages512, batch - b0);
    const int64_t block = 8 * kMaxVecs[imgs - 1];
    for (int64_t c0 = 0; c0 < width; c0 += block) {
      const int64_t bw = std::min(block, width - c0);
      const int64_t vecs = (bw + 7) / 8;
      kEventTiles[imgs - 1][vecs - 1](
          rows, srcs, n_events, drives + b0, batch, panel + c0, width,
          first_lanes(bw - 8 * (vecs - 1)), acc + b0 * width + c0);
    }
  }
}

void avx512_read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                          const ReadEpilogue& ep, int32_t* counts,
                          int64_t count_stride, double* y_out) {
  const __m512d dg = _mm512_set1_pd(ep.dg);
  const __m512d step = _mm512_set1_pd(ep.step);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d lo = _mm512_set1_pd(count_lo(ep));
  const __m512d hi = _mm512_set1_pd(count_hi(ep));
  // (plus, minus) pairs of 8 columns span two vectors; these pick the
  // plus (even) and minus (odd) lanes of the pair in column order.
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  // Column c of a row goes to counts[c * count_stride + i].
  const __m512i plane = _mm512_mullo_epi64(
      _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
      _mm512_set1_epi64(count_stride));
  for (int64_t c0 = 0; c0 < ep.cols; c0 += 8) {
    const int64_t live = std::min<int64_t>(8, ep.cols - c0);
    const __mmask8 mask = first_lanes(live);
    const __mmask8 acc_lo = first_lanes(2 * live);
    const __mmask8 acc_hi = first_lanes(2 * live - 8);
    const __m512d bias =
        _mm512_maskz_cvtps_pd(kAll, _mm256_maskz_loadu_ps(mask, ep.bias + c0));
    int32_t* base = counts + c0 * count_stride;
    __m512d y = _mm512_setzero_pd();
    for (int64_t i = 0; i < n; ++i) {
      const double* a = acc + i * acc_stride + 2 * c0;
      const __m512d p0 = _mm512_maskz_loadu_pd(acc_lo, a);
      const __m512d p1 = _mm512_maskz_loadu_pd(acc_hi, a + 8);
      const __m512d d = _mm512_sub_pd(_mm512_permutex2var_pd(p0, even, p1),
                                      _mm512_permutex2var_pd(p0, odd, p1));
      y = _mm512_add_pd(_mm512_mul_pd(step, _mm512_div_pd(d, dg)), bias);
      __m512d r = _mm512_maskz_roundscale_pd(
          kAll, _mm512_add_pd(y, half),
          _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
      r = _mm512_maskz_min_pd(kAll, _mm512_maskz_max_pd(kAll, r, lo), hi);
      _mm512_mask_i64scatter_epi32(base + i, mask, plane,
                                   _mm512_maskz_cvttpd_epi32(kAll, r), 4);
    }
    if (y_out != nullptr && n > 0) _mm512_mask_storeu_pd(y_out + c0, mask, y);
  }
}

#else  // no AVX-512 — stubs; dispatch never selects these.

void avx512_accumulate_rows_batch(const int32_t*, const int32_t*, int64_t,
                                  const double*, int64_t, const double*,
                                  int64_t, double*) {}
void avx512_read_epilogue(const double*, int64_t, int64_t,
                          const ReadEpilogue&, int32_t*, int64_t, double*) {}

#endif

}  // namespace qsnc::nn::kernels
