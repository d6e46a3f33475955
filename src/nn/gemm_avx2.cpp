// AVX2 fp32 micro-kernels. This TU (and igemm_avx2.cpp) is the only place
// compiled with -mavx2; everything else stays generic x86-64 so the scalar
// reference keeps its pre-SIMD code generation.
//
// Bit-exactness with the scalar loops in gemm.cpp is achieved by
// construction (see gemm_kernels.h):
//   * multiplies and adds stay separate (`add(acc, mul(a, b))`) — the TU is
//     compiled with -mno-fma -ffp-contract=off so nothing fuses;
//   * vectors span the j (column) dimension only, so every output cell
//     accumulates exactly the scalar term sequence: k ascending, seeded
//     from the existing C value;
//   * the per-variant zero-skip (`a == 0.0f`) is tested on the same scalar
//     value the reference tests, and skipping is uniform across a row's
//     j lanes because it depends only on (i, k).
// Register tiles are kMR x kNR (4 rows x 16 columns = 8 ymm accumulators);
// B is consumed from the 64-byte-aligned column-tile panels packed once per
// call by gemm.cpp, and A is repacked per 4-row block into a [k x 4]
// transposed strip so broadcasts walk one contiguous buffer.
#include "nn/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "util/aligned.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace qsnc::nn::kernels {

int64_t gemm_panel_floats(int64_t k, int64_t n) {
  const int64_t tiles = (n + kNR - 1) / kNR;
  return std::max<int64_t>(int64_t{1}, tiles * std::max<int64_t>(k, 1) * kNR);
}

void pack_b_panel(const float* b, int64_t k, int64_t n, float* panel) {
  for (int64_t jt = 0; jt * kNR < n; ++jt) {
    const int64_t j0 = jt * kNR;
    const int64_t jw = std::min(kNR, n - j0);
    float* tile = panel + jt * k * kNR;
    for (int64_t kk = 0; kk < k; ++kk) {
      float* dst = tile + kk * kNR;
      const float* src = b + kk * n + j0;
      int64_t j = 0;
      for (; j < jw; ++j) dst[j] = src[j];
      for (; j < kNR; ++j) dst[j] = 0.0f;
    }
  }
}

void pack_bt_panel(const float* b, int64_t k, int64_t n, float* panel) {
  for (int64_t jt = 0; jt * kNR < n; ++jt) {
    const int64_t j0 = jt * kNR;
    float* tile = panel + jt * k * kNR;
    for (int64_t jj = 0; jj < kNR; ++jj) {
      const int64_t j = j0 + jj;
      if (j < n) {
        const float* brow = b + j * k;
        for (int64_t kk = 0; kk < k; ++kk) tile[kk * kNR + jj] = brow[kk];
      } else {
        for (int64_t kk = 0; kk < k; ++kk) tile[kk * kNR + jj] = 0.0f;
      }
    }
  }
}

#if defined(__AVX2__)

namespace {

// Per-thread [k x kMR] transposed A strip for the broadcast stream.
thread_local util::aligned_vector<float> tl_astrip;

float* astrip(int64_t k) {
  tl_astrip.resize(static_cast<size_t>(std::max<int64_t>(k, 1) * kMR));
  return tl_astrip.data();
}

// C(4 x 16) += A-strip * B-tile over kk in [0, k), skipping zero A values.
// c rows are read first (the scalar accumulation seed), updated in
// registers, and stored once.
inline void mk4x16_skip(const float* ap, const float* bt, int64_t k, float* c0,
                        float* c1, float* c2, float* c3) {
  __m256 a00 = _mm256_loadu_ps(c0), a01 = _mm256_loadu_ps(c0 + 8);
  __m256 a10 = _mm256_loadu_ps(c1), a11 = _mm256_loadu_ps(c1 + 8);
  __m256 a20 = _mm256_loadu_ps(c2), a21 = _mm256_loadu_ps(c2 + 8);
  __m256 a30 = _mm256_loadu_ps(c3), a31 = _mm256_loadu_ps(c3 + 8);
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_load_ps(bt + kk * kNR);
    const __m256 b1 = _mm256_load_ps(bt + kk * kNR + 8);
    const float* av = ap + kk * kMR;
    if (av[0] != 0.0f) {
      const __m256 v = _mm256_set1_ps(av[0]);
      a00 = _mm256_add_ps(a00, _mm256_mul_ps(v, b0));
      a01 = _mm256_add_ps(a01, _mm256_mul_ps(v, b1));
    }
    if (av[1] != 0.0f) {
      const __m256 v = _mm256_set1_ps(av[1]);
      a10 = _mm256_add_ps(a10, _mm256_mul_ps(v, b0));
      a11 = _mm256_add_ps(a11, _mm256_mul_ps(v, b1));
    }
    if (av[2] != 0.0f) {
      const __m256 v = _mm256_set1_ps(av[2]);
      a20 = _mm256_add_ps(a20, _mm256_mul_ps(v, b0));
      a21 = _mm256_add_ps(a21, _mm256_mul_ps(v, b1));
    }
    if (av[3] != 0.0f) {
      const __m256 v = _mm256_set1_ps(av[3]);
      a30 = _mm256_add_ps(a30, _mm256_mul_ps(v, b0));
      a31 = _mm256_add_ps(a31, _mm256_mul_ps(v, b1));
    }
  }
  _mm256_storeu_ps(c0, a00);
  _mm256_storeu_ps(c0 + 8, a01);
  _mm256_storeu_ps(c1, a10);
  _mm256_storeu_ps(c1 + 8, a11);
  _mm256_storeu_ps(c2, a20);
  _mm256_storeu_ps(c2 + 8, a21);
  _mm256_storeu_ps(c3, a30);
  _mm256_storeu_ps(c3 + 8, a31);
}

// Single-row variant of mk4x16_skip; ap has stride 1.
inline void mk1x16_skip(const float* ap, const float* bt, int64_t k,
                        float* c0) {
  __m256 a00 = _mm256_loadu_ps(c0), a01 = _mm256_loadu_ps(c0 + 8);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float av = ap[kk];
    if (av == 0.0f) continue;
    const __m256 v = _mm256_set1_ps(av);
    a00 = _mm256_add_ps(
        a00, _mm256_mul_ps(v, _mm256_load_ps(bt + kk * kNR)));
    a01 = _mm256_add_ps(
        a01, _mm256_mul_ps(v, _mm256_load_ps(bt + kk * kNR + 8)));
  }
  _mm256_storeu_ps(c0, a00);
  _mm256_storeu_ps(c0 + 8, a01);
}

// Shared row driver for the two skip variants (gemm_acc and at_b differ
// only in how the A strip is packed). Tail column tiles bounce C through a
// zero-padded stack buffer so the accumulation still seeds from C; the
// padded B lanes are zero, leaving the padded accumulators untouched.
template <typename PackStrip4, typename PackStrip1>
void skip_rows_driver(const float* b_panel, float* c, int64_t k, int64_t n,
                      int64_t i0, int64_t i1, PackStrip4&& pack4,
                      PackStrip1&& pack1) {
  if (k == 0) return;  // C += nothing; an empty A may be a null pointer
  float* ap = astrip(k);
  const int64_t tiles = (n + kNR - 1) / kNR;
  for (int64_t ib = i0; ib < i1; ib += kMR) {
    if (i1 - ib >= kMR) {
      pack4(ib, ap);
      for (int64_t jt = 0; jt < tiles; ++jt) {
        const int64_t j0 = jt * kNR;
        const int64_t jw = std::min(kNR, n - j0);
        const float* bt = b_panel + jt * k * kNR;
        if (jw == kNR) {
          mk4x16_skip(ap, bt, k, c + ib * n + j0, c + (ib + 1) * n + j0,
                      c + (ib + 2) * n + j0, c + (ib + 3) * n + j0);
        } else {
          alignas(64) float cbuf[kMR * kNR] = {};
          for (int64_t r = 0; r < kMR; ++r) {
            std::memcpy(cbuf + r * kNR, c + (ib + r) * n + j0,
                        static_cast<size_t>(jw) * sizeof(float));
          }
          mk4x16_skip(ap, bt, k, cbuf, cbuf + kNR, cbuf + 2 * kNR,
                      cbuf + 3 * kNR);
          for (int64_t r = 0; r < kMR; ++r) {
            std::memcpy(c + (ib + r) * n + j0, cbuf + r * kNR,
                        static_cast<size_t>(jw) * sizeof(float));
          }
        }
      }
    } else {
      for (int64_t i = ib; i < i1; ++i) {
        pack1(i, ap);
        for (int64_t jt = 0; jt < tiles; ++jt) {
          const int64_t j0 = jt * kNR;
          const int64_t jw = std::min(kNR, n - j0);
          const float* bt = b_panel + jt * k * kNR;
          if (jw == kNR) {
            mk1x16_skip(ap, bt, k, c + i * n + j0);
          } else {
            alignas(64) float cbuf[kNR] = {};
            std::memcpy(cbuf, c + i * n + j0,
                        static_cast<size_t>(jw) * sizeof(float));
            mk1x16_skip(ap, bt, k, cbuf);
            std::memcpy(c + i * n + j0, cbuf,
                        static_cast<size_t>(jw) * sizeof(float));
          }
        }
      }
    }
  }
}

// C(rows x 16) += A * B^T over one kBlockK block: fresh accumulators, no
// zero-skip, one add into C per block — the gemm_a_bt_acc contract. `rows`
// may be 1..4; arow[r] walks A contiguously.
inline void mkNx16_block(const float* const* arow, int64_t rows,
                         const float* bt, int64_t kb, float* const* crow,
                         int64_t jw) {
  __m256 acc[kMR][2];
  for (int64_t r = 0; r < rows; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < kb; ++kk) {
    const __m256 b0 = _mm256_load_ps(bt + kk * kNR);
    const __m256 b1 = _mm256_load_ps(bt + kk * kNR + 8);
    for (int64_t r = 0; r < rows; ++r) {
      const __m256 v = _mm256_set1_ps(arow[r][kk]);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(v, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(v, b1));
    }
  }
  if (jw == kNR) {
    for (int64_t r = 0; r < rows; ++r) {
      _mm256_storeu_ps(crow[r],
                       _mm256_add_ps(_mm256_loadu_ps(crow[r]), acc[r][0]));
      _mm256_storeu_ps(
          crow[r] + 8,
          _mm256_add_ps(_mm256_loadu_ps(crow[r] + 8), acc[r][1]));
    }
  } else {
    alignas(64) float abuf[kNR];
    for (int64_t r = 0; r < rows; ++r) {
      _mm256_store_ps(abuf, acc[r][0]);
      _mm256_store_ps(abuf + 8, acc[r][1]);
      for (int64_t j = 0; j < jw; ++j) crow[r][j] += abuf[j];
    }
  }
}

}  // namespace

void avx2_gemm_acc_rows(const float* a, const float* b_panel, float* c,
                        int64_t k, int64_t n, int64_t i0, int64_t i1) {
  skip_rows_driver(
      b_panel, c, k, n, i0, i1,
      [&](int64_t ib, float* ap) {
        for (int64_t r = 0; r < kMR; ++r) {
          const float* arow = a + (ib + r) * k;
          for (int64_t kk = 0; kk < k; ++kk) ap[kk * kMR + r] = arow[kk];
        }
      },
      [&](int64_t i, float* ap) {
        std::memcpy(ap, a + i * k, static_cast<size_t>(k) * sizeof(float));
      });
}

void avx2_gemm_at_b_acc_rows(const float* a, const float* b_panel, float* c,
                             int64_t m, int64_t k, int64_t n, int64_t i0,
                             int64_t i1) {
  skip_rows_driver(
      b_panel, c, k, n, i0, i1,
      [&](int64_t ib, float* ap) {
        for (int64_t kk = 0; kk < k; ++kk) {
          std::memcpy(ap + kk * kMR, a + kk * m + ib, kMR * sizeof(float));
        }
      },
      [&](int64_t i, float* ap) {
        for (int64_t kk = 0; kk < k; ++kk) ap[kk] = a[kk * m + i];
      });
}

void avx2_gemm_a_bt_acc_rows(const float* a, const float* bt_panel, float* c,
                             int64_t k, int64_t n, int64_t i0, int64_t i1) {
  const int64_t tiles = (n + kNR - 1) / kNR;
  const float* arow[kMR];
  float* crow[kMR];
  for (int64_t ib = i0; ib < i1; ib += kMR) {
    const int64_t rows = std::min(kMR, i1 - ib);
    for (int64_t jt = 0; jt < tiles; ++jt) {
      const int64_t j0 = jt * kNR;
      const int64_t jw = std::min(kNR, n - j0);
      const float* bt = bt_panel + jt * k * kNR;
      for (int64_t r = 0; r < rows; ++r) {
        arow[r] = a + (ib + r) * k;
        crow[r] = c + (ib + r) * n + j0;
      }
      for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const int64_t kb = std::min(kBlockK, k - k0);
        mkNx16_block(arow, rows, bt + k0 * kNR, kb, crow, jw);
        for (int64_t r = 0; r < rows; ++r) arow[r] += kb;
      }
    }
  }
}

namespace {

// Lanes [0, n) of a 4 x int64 mask set.
__m256i first_lanes(int64_t n) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

// One register tile of avx2_accumulate_rows_batch: kImgs images by kVecs
// ymm column vectors (the last one masked by `tail` when kTail) stay in
// registers across every event and are stored once at the end. Each event
// loads its panel-row vectors once and broadcasts each image's drive, so
// one load serves kImgs multiply-adds. `drive` is the tile's first image
// column of the drive buffer, `row0` the panel at the block's first
// column, `out` the first image's accumulator row at that column, and
// `rem` the live lanes of the masked vector.
template <int kImgs, int kVecs, bool kTail>
void event_tile(const int32_t* rows, const int32_t* srcs, int64_t n_events,
                const double* drive, int64_t batch, const double* row0,
                int64_t width, int64_t rem, double* out) {
  const __m256i tail = first_lanes(rem);
  __m256d acc[kImgs][kVecs];
#pragma GCC unroll 16
  for (int i = 0; i < kImgs; ++i) {
#pragma GCC unroll 16
    for (int k = 0; k < kVecs; ++k) acc[i][k] = _mm256_setzero_pd();
  }
  for (int64_t e = 0; e < n_events; ++e) {
    const double* d = drive + static_cast<int64_t>(srcs[e]) * batch;
    const double* row = row0 + static_cast<int64_t>(rows[e]) * width;
    __m256d g[kVecs];
#pragma GCC unroll 16
    for (int k = 0; k < kVecs; ++k) {
      g[k] = kTail && k == kVecs - 1 ? _mm256_maskload_pd(row + 4 * k, tail)
                                     : _mm256_loadu_pd(row + 4 * k);
    }
#pragma GCC unroll 16
    for (int i = 0; i < kImgs; ++i) {
      const __m256d v = _mm256_broadcast_sd(d + i);
#pragma GCC unroll 16
      for (int k = 0; k < kVecs; ++k) {
        acc[i][k] = _mm256_add_pd(acc[i][k], _mm256_mul_pd(v, g[k]));
      }
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < kImgs; ++i) {
#pragma GCC unroll 16
    for (int k = 0; k < kVecs; ++k) {
      double* o = out + i * width + 4 * k;
      if (kTail && k == kVecs - 1) {
        _mm256_maskstore_pd(o, tail, acc[i][k]);
      } else {
        _mm256_storeu_pd(o, acc[i][k]);
      }
    }
  }
}

using EventTileFn = void (*)(const int32_t*, const int32_t*, int64_t,
                             const double*, int64_t, const double*, int64_t,
                             int64_t, double*);

// kEventTiles[kImgs - 1][kTail][vecs - 1] for vecs in
// [1, kEventTileVecs / kImgs]; unused entries are null.
template <int kImgs, bool kTail, size_t... kI>
constexpr std::array<EventTileFn, kEventTileVecs> event_tile_row(
    std::index_sequence<kI...>) {
  return {&event_tile<kImgs, static_cast<int>(kI) + 1, kTail>...};
}
template <int kImgs>
constexpr std::array<std::array<EventTileFn, kEventTileVecs>, 2>
event_tile_rows() {
  constexpr size_t kVecs = kEventTileVecs / kImgs;
  return {event_tile_row<kImgs, false>(std::make_index_sequence<kVecs>{}),
          event_tile_row<kImgs, true>(std::make_index_sequence<kVecs>{})};
}
constexpr std::array<std::array<EventTileFn, kEventTileVecs>, 2>
    kEventTiles[kEventTileImages] = {event_tile_rows<1>(),
                                     event_tile_rows<2>(),
                                     event_tile_rows<3>(),
                                     event_tile_rows<4>()};

}  // namespace

void avx2_accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                                int64_t n_events, const double* drives,
                                int64_t batch, const double* panel,
                                int64_t width, double* acc) {
  for (int64_t b0 = 0; b0 < batch; b0 += kEventTileImages) {
    const int64_t imgs = std::min(kEventTileImages, batch - b0);
    const int64_t block = 4 * (kEventTileVecs / imgs);
    for (int64_t c0 = 0; c0 < width; c0 += block) {
      const int64_t bw = std::min(block, width - c0);
      const int64_t rem = bw % 4;
      kEventTiles[imgs - 1][rem != 0][(bw + 3) / 4 - 1](
          rows, srcs, n_events, drives + b0, batch, panel + c0, width, rem,
          acc + b0 * width + c0);
    }
  }
}

void avx2_read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                        const ReadEpilogue& ep, int32_t* counts,
                        int64_t count_stride, double* y_out) {
  const __m256d dg = _mm256_set1_pd(ep.dg);
  const __m256d step = _mm256_set1_pd(ep.step);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lo = _mm256_set1_pd(count_lo(ep));
  const __m256d hi = _mm256_set1_pd(count_hi(ep));
  for (int64_t c0 = 0; c0 < ep.cols; c0 += 4) {
    const int64_t live = std::min<int64_t>(4, ep.cols - c0);
    const __m256i mask = first_lanes(live);
    const __m256i acc_lo = first_lanes(2 * live);
    const __m256i acc_hi = first_lanes(2 * live - 4);
    const __m256d bias = _mm256_cvtps_pd(_mm_maskload_ps(
        ep.bias + c0, _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(live)),
                                      _mm_setr_epi32(0, 1, 2, 3))));
    alignas(16) int32_t k[4];
    __m256d y = _mm256_setzero_pd();
    for (int64_t i = 0; i < n; ++i) {
      const double* a = acc + i * acc_stride + 2 * c0;
      // [p0 m0 p1 m1], [p2 m2 p3 m3] -> [p0-m0 p2-m2 p1-m1 p3-m3] -> in
      // column order.
      const __m256d d = _mm256_permute4x64_pd(
          _mm256_hsub_pd(_mm256_maskload_pd(a, acc_lo),
                         _mm256_maskload_pd(a + 4, acc_hi)),
          _MM_SHUFFLE(3, 1, 2, 0));
      y = _mm256_add_pd(_mm256_mul_pd(step, _mm256_div_pd(d, dg)), bias);
      __m256d r = _mm256_round_pd(_mm256_add_pd(y, half),
                                  _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
      r = _mm256_min_pd(_mm256_max_pd(r, lo), hi);
      _mm_store_si128(reinterpret_cast<__m128i*>(k), _mm256_cvttpd_epi32(r));
      int32_t* o = counts + c0 * count_stride + i;
      for (int64_t j = 0; j < live; ++j) o[j * count_stride] = k[j];
    }
    if (y_out != nullptr && n > 0) _mm256_maskstore_pd(y_out + c0, mask, y);
  }
}

#else  // !__AVX2__ — stubs; dispatch never selects these without AVX2.

void avx2_gemm_acc_rows(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, int64_t) {}
void avx2_gemm_at_b_acc_rows(const float*, const float*, float*, int64_t,
                             int64_t, int64_t, int64_t, int64_t) {}
void avx2_gemm_a_bt_acc_rows(const float*, const float*, float*, int64_t,
                             int64_t, int64_t, int64_t) {}
void avx2_accumulate_rows_batch(const int32_t*, const int32_t*, int64_t,
                                const double*, int64_t, const double*,
                                int64_t, double*) {}
void avx2_read_epilogue(const double*, int64_t, int64_t, const ReadEpilogue&,
                        int32_t*, int64_t, double*) {}

#endif  // __AVX2__

}  // namespace qsnc::nn::kernels
