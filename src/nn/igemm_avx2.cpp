// AVX2 integer micro-kernels (vpmaddwd), compiled with -mavx2 like
// gemm_avx2.cpp. Each vpmaddwd multiplies 16 int16 pairs and sums adjacent
// products into 8 int32 lanes — two k steps per instruction — so B is
// packed with consecutive k pairs interleaved per column (pack_ib_panel).
// int32 accumulation is exact under the caller's overflow contract, so the
// SIMD schedule is bit-identical to the scalar reference with no rounding
// analysis needed. The GEMM (igemm, the dense layers) reads B from that
// panel; the conv read (igemm_conv) puts one lane group's output positions
// in the int32 lanes and interleaves the int16 drive pairs straight from
// the padded plane, one vpmaddwd per row pair and output channel.
#include "nn/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

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

// How a lane group's drives load: one contiguous run of the plane, two
// (the group spans two output rows), or a gather.
enum { kOneRun, kTwoRuns, kGather };

// Row pairs whose drive vectors are built (and the all-zero ones dropped)
// before any of them feeds the accumulators.
constexpr int64_t kPairChunk = 32;

// The drive loads of one lane group: lane j of run 1 reads p1 + tap + j,
// of run 2 p2 + tap + j, where `run2` selects run 2's int16 lanes. Whole
// 8-lane loads may read up to kConvLanes - 1 int16 past the plane, into
// the zero tail fill_iconv_plane leaves there. A gather reads each lane at
// its origin. `live` selects the int32 lanes that hold positions.
struct Lanes8 {
  const int16_t* p1;
  const int16_t* p2;
  __m128i run2;
  __m256i origin;
  __m256i live;
};

// The 8 int16 drives of the row at tap offset t.
template <int kLoad>
inline __m128i row8(const Lanes8& lanes, int32_t t) {
  const __m128i v =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.p1 + t));
  if (kLoad == kOneRun) return v;
  return _mm_blendv_epi8(
      v, _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.p2 + t)),
      lanes.run2);
}

// Lane j = (drive at tap t0, drive at tap t1) of the group's position j,
// the int16 pair vpmaddwd multiplies by a weight pair.
template <int kLoad>
inline __m256i drive_pairs(const Lanes8& lanes, const int16_t* plane,
                           int32_t t0, int32_t t1) {
  if (kLoad == kGather) {
    // The masked form with a zero source and an all-lanes mask: the
    // unmasked intrinsic merges into an undefined vector, which GCC 12
    // reports as maybe-uninitialized.
    const __m256i all = _mm256_set1_epi32(-1);
    const __m256i a = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), reinterpret_cast<const int*>(plane + t0),
        lanes.origin, all, 2);
    const __m256i b = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), reinterpret_cast<const int*>(plane + t1),
        lanes.origin, all, 2);
    return _mm256_blend_epi16(a, _mm256_slli_epi32(b, 16), 0xAA);
  }
  const __m128i a = row8<kLoad>(lanes, t0);
  const __m128i b = row8<kLoad>(lanes, t1);
  return _mm256_set_m128i(_mm_unpackhi_epi16(a, b), _mm_unpacklo_epi16(a, b));
}

// Output channels [c0, c0 + kCols) of one lane group: kCols int32
// accumulators stay in registers across every row pair. Each chunk of row
// pairs first builds its drive vectors and keeps the ones with a nonzero
// lane (branch-free); only those feed the accumulators, one vpmaddwd +
// vpaddd per channel. `out` is C at channel c0 and the group's first
// position.
template <int kCols, int kLoad>
void conv_block(const Lanes8& lanes, const int16_t* plane,
                const int32_t* taps, int64_t rows, const int32_t* pairs,
                int64_t m, int64_t c0, int64_t positions, int32_t* out) {
  __m256i acc[kCols];
#pragma GCC unroll 16
  for (int c = 0; c < kCols; ++c) acc[c] = _mm256_setzero_si256();
  alignas(32) int32_t live_v[kPairChunk * 8];
  const int32_t* live_w[kPairChunk];
  const int64_t n_pairs = (rows + 1) / 2;
  for (int64_t p0 = 0; p0 < n_pairs; p0 += kPairChunk) {
    const int64_t p1 = std::min(n_pairs, p0 + kPairChunk);
    int64_t n = 0;
    for (int64_t p = p0; p < p1; ++p) {
      // An odd k's last row pairs with itself; its weight pair is (w, 0).
      const int32_t t0 = taps[2 * p];
      const int32_t t1 = 2 * p + 1 < rows ? taps[2 * p + 1] : t0;
      const __m256i x = drive_pairs<kLoad>(lanes, plane, t0, t1);
      _mm256_store_si256(reinterpret_cast<__m256i*>(live_v + 8 * n), x);
      live_w[n] = pairs + p * m + c0;
      n += _mm256_testz_si256(x, x) == 0;
    }
    for (int64_t i = 0; i < n; ++i) {
      const __m256i x =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(live_v + 8 * i));
      const int32_t* w = live_w[i];
#pragma GCC unroll 16
      for (int c = 0; c < kCols; ++c) {
        acc[c] = _mm256_add_epi32(
            acc[c], _mm256_madd_epi16(x, _mm256_set1_epi32(w[c])));
      }
    }
  }
#pragma GCC unroll 16
  for (int c = 0; c < kCols; ++c) {
    _mm256_maskstore_epi32(out + c * positions, lanes.live, acc[c]);
  }
}

using ConvBlockFn = void (*)(const Lanes8&, const int16_t*, const int32_t*,
                             int64_t, const int32_t*, int64_t, int64_t,
                             int64_t, int32_t*);

// kConvBlocks[load][cols - 1].
template <int kLoad, size_t... kI>
constexpr std::array<ConvBlockFn, kIConvCols2> conv_block_row(
    std::index_sequence<kI...>) {
  return {&conv_block<static_cast<int>(kI) + 1, kLoad>...};
}
constexpr std::array<ConvBlockFn, kIConvCols2> kConvBlocks[3] = {
    conv_block_row<kOneRun>(std::make_index_sequence<kIConvCols2>{}),
    conv_block_row<kTwoRuns>(std::make_index_sequence<kIConvCols2>{}),
    conv_block_row<kGather>(std::make_index_sequence<kIConvCols2>{})};

}  // namespace

void avx2_igemm_conv(const ConvReadPlan& plan, const int32_t* pairs,
                     int64_t m, const int16_t* plane, int32_t* c) {
  const int64_t block = conv_block_pairs(m, kIConvCols2);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    const ConvLaneGroup& grp = plan.groups[g];
    Lanes8 lanes;
    // Lane j of run 2 reads p2 + j; origins ascend, so origin[split] >=
    // split keeps p2 in the plane.
    const int32_t split2 = grp.split < grp.live ? grp.split : 0;
    lanes.p1 = plane + grp.origin[0];
    lanes.p2 = plane + grp.origin[split2] - split2;
    lanes.run2 = _mm_cmpgt_epi16(_mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7),
                                 _mm_set1_epi16(static_cast<int16_t>(
                                     grp.split - 1)));
    lanes.origin =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(grp.origin));
    const int load = grp.split == 0          ? kGather
                     : grp.split < grp.live ? kTwoRuns
                                            : kOneRun;
    lanes.live = _mm256_cmpgt_epi32(_mm256_set1_epi32(grp.live), lane);
    for (int64_t c0 = 0; c0 < m; c0 += block) {
      const int64_t cols = std::min(block, m - c0);
      kConvBlocks[load][cols - 1](
          lanes, plane, plan.taps.data(), plan.rows(), pairs, m, c0,
          plan.positions,
          c + c0 * plan.positions + static_cast<int64_t>(g) * kConvLanes);
    }
  }
}

#else  // !__AVX2__ — stubs; dispatch never selects these without AVX2.

void avx2_igemm_acc_rows(const int16_t*, const int16_t*, int32_t*, int64_t,
                         int64_t, int64_t, int64_t) {}
void avx2_igemm_conv(const ConvReadPlan&, const int32_t*, int64_t,
                     const int16_t*, int32_t*) {}

#endif  // __AVX2__

}  // namespace qsnc::nn::kernels
