// AVX2 integer micro-kernels (vpmaddwd), compiled with -mavx2 like
// gemm_avx2.cpp. Each vpmaddwd multiplies 16 int16 pairs and sums adjacent
// products into 8 int32 lanes — two k steps per instruction — so B is
// packed with consecutive k pairs interleaved per column (pack_ib_panel).
// int32 accumulation is exact under the caller's overflow contract, so the
// SIMD schedule is bit-identical to the scalar reference with no rounding
// analysis needed.
#include "nn/gemm_kernels.h"

#include <algorithm>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace qsnc::nn::kernels {

namespace {
inline int64_t k_pairs(int64_t k) { return (k + 1) / 2; }
}  // namespace

int64_t ib_panel_int16s(int64_t k, int64_t n) {
  const int64_t tiles = (n + kINR - 1) / kINR;
  return std::max<int64_t>(int64_t{1},
                           tiles * std::max<int64_t>(k_pairs(k), 1) * 2 * kINR);
}

void pack_ib_panel(const int16_t* b, int64_t k, int64_t n, int16_t* panel) {
  const int64_t kp = k_pairs(k);
  for (int64_t jt = 0; jt * kINR < n; ++jt) {
    const int64_t j0 = jt * kINR;
    int16_t* tile = panel + jt * kp * 2 * kINR;
    for (int64_t p = 0; p < kp; ++p) {
      const int64_t k0 = 2 * p;
      int16_t* dst = tile + p * 2 * kINR;
      for (int64_t jj = 0; jj < kINR; ++jj) {
        const int64_t j = j0 + jj;
        const bool live = j < n;
        dst[jj * 2 + 0] = live ? b[k0 * n + j] : int16_t{0};
        dst[jj * 2 + 1] =
            (live && k0 + 1 < k) ? b[(k0 + 1) * n + j] : int16_t{0};
      }
    }
  }
}

#if defined(__AVX2__)

namespace {

// C(R x 16) += A * B-tile over all of k, for R = 1..kIMR rows. arow[r]
// points at A row r; jw <= kINR live output lanes. R is a template
// argument so the unrolled row loops index the 2R accumulators with
// constants and they stay in ymm registers. Each full k pair of a row is
// one 32-bit load (the int16 pair in vpmaddwd's order) broadcast to every
// lane. An odd k leaves one row past the last pair; it pairs with zero
// and is added once, after the pair loop, so no load reads past a row.
template <int R>
inline void imkNx16(const int16_t* const* arow, const int16_t* bt, int64_t k,
                    int32_t* const* crow, int64_t jw) {
  __m256i acc0[R];
  __m256i acc1[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_si256();
    acc1[r] = _mm256_setzero_si256();
  }
  // acc[r] += (pair, pair, ...) . b, for the k pair whose panel is bp.
  const auto madd_pair = [&](const int16_t* bp, const auto& pair_of_row) {
    const __m256i b0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(bp + kINR));
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256i v = _mm256_set1_epi32(pair_of_row(r));
      acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(v, b0));
      acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(v, b1));
    }
  };
  const int64_t full = k / 2;
  for (int64_t p = 0; p < full; ++p) {
    madd_pair(bt + p * 2 * kINR, [&](int r) {
      int32_t pair;
      std::memcpy(&pair, arow[r] + 2 * p, sizeof(pair));
      return pair;
    });
  }
  if (k % 2 != 0) {
    // (a[k-1], 0): the low int16 of the lane, the high one zero.
    madd_pair(bt + full * 2 * kINR, [&](int r) -> int32_t {
      return static_cast<uint16_t>(arow[r][k - 1]);
    });
  }
  if (jw == kINR) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      __m256i* c0 = reinterpret_cast<__m256i*>(crow[r]);
      __m256i* c1 = reinterpret_cast<__m256i*>(crow[r] + 8);
      _mm256_storeu_si256(c0,
                          _mm256_add_epi32(_mm256_loadu_si256(c0), acc0[r]));
      _mm256_storeu_si256(c1,
                          _mm256_add_epi32(_mm256_loadu_si256(c1), acc1[r]));
    }
  } else {
    alignas(64) int32_t abuf[kINR];
    for (int r = 0; r < R; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(abuf), acc0[r]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(abuf + 8), acc1[r]);
      for (int64_t j = 0; j < jw; ++j) crow[r][j] += abuf[j];
    }
  }
}

// imkNx16 at a runtime row count 1..kIMR.
inline void imk_rows(const int16_t* const* arow, int64_t rows,
                     const int16_t* bt, int64_t k, int32_t* const* crow,
                     int64_t jw) {
  static_assert(kIMR == 4, "one case per row count");
  switch (rows) {
    case 4: imkNx16<4>(arow, bt, k, crow, jw); break;
    case 3: imkNx16<3>(arow, bt, k, crow, jw); break;
    case 2: imkNx16<2>(arow, bt, k, crow, jw); break;
    default: imkNx16<1>(arow, bt, k, crow, jw); break;
  }
}

}  // namespace

void avx2_igemm_acc_rows(const int16_t* a, const int16_t* b_panel, int32_t* c,
                         int64_t k, int64_t n, int64_t i0, int64_t i1) {
  const int64_t kp = std::max<int64_t>(k_pairs(k), 1);
  const int64_t tiles = (n + kINR - 1) / kINR;
  const int16_t* arow[kIMR];
  int32_t* crow[kIMR];
  for (int64_t ib = i0; ib < i1; ib += kIMR) {
    const int64_t rows = std::min(kIMR, i1 - ib);
    for (int64_t jt = 0; jt < tiles; ++jt) {
      const int64_t j0 = jt * kINR;
      const int64_t jw = std::min(kINR, n - j0);
      for (int64_t r = 0; r < rows; ++r) {
        arow[r] = a + (ib + r) * k;
        crow[r] = c + (ib + r) * n + j0;
      }
      imk_rows(arow, rows, b_panel + jt * kp * 2 * kINR, k, crow, jw);
    }
  }
}

namespace {

// Loaded from kLaneMaskTable + kINR - l: int16 lanes >= l all ones.
alignas(64) constexpr int16_t kLaneMaskTable[2 * kINR] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1};

inline __m256i lanes_from(int64_t l) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMaskTable + kINR - l));
}

// Column runs per tile the vector path handles: a stride-1 conv tile
// spans at most ceil(16 / out_w) + 1 output rows.
constexpr int kMaxRuns = 4;

}  // namespace

void avx2_pack_gather_panel(const int16_t* src, const int32_t* row_off,
                            int64_t k, const int32_t* col_off, int64_t n,
                            int16_t* panel) {
  const int64_t kp = k_pairs(k);
  for (int64_t j0 = 0; j0 < n; j0 += kINR) {
    const int32_t* col = col_off + j0;
    const int64_t jw = std::min(kINR, n - j0);
    // Split the tile into runs of consecutive source offsets. Run r starts
    // at some lane l_r and reads lane l at src + base[r] + l; from[r]
    // selects lanes >= l_r, so each later run overwrites the lanes past
    // its start. More runs than kMaxRuns take one load per element.
    int64_t base[kMaxRuns];
    __m256i from[kMaxRuns];
    int runs = 0;
    for (int64_t l = 0; l < jw && runs <= kMaxRuns; ++l) {
      if (l > 0 && col[l] == col[l - 1] + 1) continue;
      if (runs < kMaxRuns) {
        base[runs] = col[l] - l;
        from[runs] = lanes_from(l);
      }
      ++runs;
    }
    const __m256i live = lanes_from(jw);  // dead lanes are zero
    int16_t* tile = panel + (j0 / kINR) * kp * 2 * kINR;
    if (runs > kMaxRuns) {
      for (int64_t p = 0; p < kp; ++p) {
        const int16_t* s0 = src + row_off[2 * p];
        const int16_t* s1 = 2 * p + 1 < k ? src + row_off[2 * p + 1] : nullptr;
        int16_t* dst = tile + p * 2 * kINR;
        for (int64_t l = 0; l < kINR; ++l) {
          dst[2 * l] = l < jw ? s0[col[l]] : int16_t{0};
          dst[2 * l + 1] = l < jw && s1 != nullptr ? s1[col[l]] : int16_t{0};
        }
      }
      continue;
    }
    const auto row = [&](const int16_t* s) {
      __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + base[0]));
      for (int r = 1; r < runs; ++r) {
        const __m256i w =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + base[r]));
        v = _mm256_blendv_epi8(v, w, from[r]);
      }
      return _mm256_andnot_si256(live, v);
    };
    for (int64_t p = 0; p < kp; ++p) {
      const __m256i lo_k = row(src + row_off[2 * p]);
      const __m256i hi_k = 2 * p + 1 < k ? row(src + row_off[2 * p + 1])
                                         : _mm256_setzero_si256();
      // Interleave the two k rows per column: (b[2p][j], b[2p+1][j]).
      const __m256i a = _mm256_unpacklo_epi16(lo_k, hi_k);
      const __m256i b = _mm256_unpackhi_epi16(lo_k, hi_k);
      __m256i* dst = reinterpret_cast<__m256i*>(tile + p * 2 * kINR);
      _mm256_store_si256(dst, _mm256_permute2x128_si256(a, b, 0x20));
      _mm256_store_si256(dst + 1, _mm256_permute2x128_si256(a, b, 0x31));
    }
  }
}

#else  // !__AVX2__ — stubs; dispatch never selects these without AVX2.

void avx2_igemm_acc_rows(const int16_t*, const int16_t*, int32_t*, int64_t,
                         int64_t, int64_t, int64_t) {}
void avx2_pack_gather_panel(const int16_t*, const int32_t*, int64_t,
                            const int32_t*, int64_t, int16_t*) {}

#endif  // __AVX2__

}  // namespace qsnc::nn::kernels
