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
#include <cstring>

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

#else  // !__AVX2__ — stubs; dispatch never selects these without AVX2.

void avx2_gemm_acc_rows(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, int64_t) {}
void avx2_gemm_at_b_acc_rows(const float*, const float*, float*, int64_t,
                             int64_t, int64_t, int64_t, int64_t) {}
void avx2_gemm_a_bt_acc_rows(const float*, const float*, float*, int64_t,
                             int64_t, int64_t, int64_t) {}

#endif  // __AVX2__

}  // namespace qsnc::nn::kernels
