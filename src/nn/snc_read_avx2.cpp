// AVX2 tier of the SNC collapsed read: the conv lanes read, the batched
// fp64 row drive and the read epilogue, for CPUs with AVX2 and FMA3 but
// without AVX-512. This TU is compiled with -mavx2 -mfma (the fp32 GEMMs in
// gemm_avx2.cpp keep -mno-fma). Every crossbar term is one explicit vfmadd
// (the std::fma of nn::crossbar_mac), and -ffp-contract=off keeps the
// compiler from fusing anything else, so the results are bit-identical to
// the scalar loops in gemm.cpp (see gemm_kernels.h).
#include "nn/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <utility>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace qsnc::nn::kernels {

#if defined(__AVX2__) && defined(__FMA__)

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
// one load serves kImgs fused multiply-adds. `drive` is the tile's first image
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
        acc[i][k] = _mm256_fmadd_pd(v, g[k], acc[i][k]);
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


// How a half lane group loads its 4 drives.
enum LaneLoad { kOneRun, kTwoRuns, kGather };

// Crossbar rows whose drive vectors are filtered at a time.
constexpr int64_t kConvRowChunk = 64;

// The rounding constants of a read epilogue, broadcast once per call.
struct EpilogueVecs {
  __m256d dg, step, half, lo, hi;
  explicit EpilogueVecs(const ReadEpilogue& ep)
      : dg(_mm256_set1_pd(ep.dg)),
        step(_mm256_set1_pd(ep.step)),
        half(_mm256_set1_pd(0.5)),
        lo(_mm256_set1_pd(count_lo(ep))),
        hi(_mm256_set1_pd(count_hi(ep))) {}
};

// Lanes [lane0, lane0 + 4) of one conv lane group, as avx2_conv_read reads
// them: `live` of them hold positions; run 1 (p1) covers lanes below
// `split`, run 2 (p2) the rest, each indexed by the lane number.
struct HalfGroup {
  const double* p1;
  const double* p2;
  __m256i m1, m2, live;  // lane masks: run 1, run 2, live positions
  __m128i idx;           // the 4 lanes' origins, for a gather
  int64_t lane0;
};

// One half lane group of avx2_conv_read over kPairs (plus, minus) column
// pairs from logical column c0: 2 * kPairs ymm accumulators, one per
// panel column, each lane one position, stay in registers across every
// row. Each row loads its 4 drives once (one or two masked contiguous
// runs, or a gather); a row whose drives are all zero is dropped, and
// every other row feeds each accumulator one vfmadd. The epilogue then
// runs in registers and stores each column's counts with one masked
// store.
template <int kPairs, int kLoad>
void conv_lane_block(const ConvReadPlan& plan, const ConvLaneGroup& grp,
                     const HalfGroup& h, const double* plane,
                     const double* panel, int64_t width,
                     const ReadEpilogue& ep, const EpilogueVecs& k,
                     int64_t c0, int32_t* counts, int64_t pos0,
                     double* y_out) {
  const int32_t* taps = plan.taps.data();
  const int64_t rows = plan.rows();
  // Every lane of a gather (dead lanes repeat a live origin).
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d acc[2 * kPairs];
#pragma GCC unroll 16
  for (int c = 0; c < 2 * kPairs; ++c) acc[c] = _mm256_setzero_pd();
  // Rows go in chunks: the chunk's drive vectors are loaded and the ones
  // with a nonzero lane kept (branch-free), then only those feed the
  // accumulators. An all-zero drive vector would leave every sum
  // unchanged, so skipping it changes no bit.
  alignas(32) double live_v[kConvRowChunk * 4];
  int32_t live_r[kConvRowChunk];
  for (int64_t r0 = 0; r0 < rows; r0 += kConvRowChunk) {
    const int64_t r1 = std::min(rows, r0 + kConvRowChunk);
    int64_t n = 0;
    for (int64_t r = r0; r < r1; ++r) {
      const int32_t t = taps[r];
      __m256d v;
      if (kLoad == kOneRun) {
        v = _mm256_maskload_pd(h.p1 + t, h.m1);
      } else if (kLoad == kTwoRuns) {
        v = _mm256_or_pd(_mm256_maskload_pd(h.p1 + t, h.m1),
                         _mm256_maskload_pd(h.p2 + t, h.m2));
      } else {
        // The masked form with a zero source and an all-lanes mask: the
        // unmasked intrinsic merges into an undefined vector, which GCC 12
        // reports as maybe-uninitialized.
        v = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), plane + t, h.idx,
                                     all, 8);
      }
      _mm256_store_pd(live_v + 4 * n, v);
      live_r[n] = static_cast<int32_t>(r);
      const __m256i bits = _mm256_castpd_si256(v);
      n += _mm256_testz_si256(bits, bits) == 0;
    }
    for (int64_t i = 0; i < n; ++i) {
      const __m256d v = _mm256_load_pd(live_v + 4 * i);
      const double* g = panel + live_r[i] * width + 2 * c0;
#pragma GCC unroll 16
      for (int c = 0; c < 2 * kPairs; ++c) {
        acc[c] = _mm256_fmadd_pd(v, _mm256_broadcast_sd(g + c), acc[c]);
      }
    }
  }
  const __m128i store_mask = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(h.live, _mm256_setr_epi32(0, 2, 4, 6, 0, 0,
                                                             0, 0)));
  const int64_t last_lane = grp.live - 1 - h.lane0;
  const bool last =
      pos0 + grp.live == plan.positions && last_lane >= 0 && last_lane < 4;
#pragma GCC unroll 8
  for (int c = 0; c < kPairs; ++c) {
    const __m256d d = _mm256_sub_pd(acc[2 * c], acc[2 * c + 1]);
    const __m256d y = _mm256_add_pd(
        _mm256_mul_pd(k.step, _mm256_div_pd(d, k.dg)),
        _mm256_set1_pd(static_cast<double>(ep.bias[c0 + c])));
    __m256d q = _mm256_round_pd(_mm256_add_pd(y, k.half),
                                _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    q = _mm256_min_pd(_mm256_max_pd(q, k.lo), k.hi);
    _mm_maskstore_epi32(
        counts + (c0 + c) * plan.positions + pos0 + h.lane0, store_mask,
        _mm256_cvttpd_epi32(q));
    if (y_out != nullptr && last) {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, y);
      y_out[c0 + c] = lanes[last_lane];
    }
  }
}

using ConvLaneFn = void (*)(const ConvReadPlan&, const ConvLaneGroup&,
                            const HalfGroup&, const double*, const double*,
                            int64_t, const ReadEpilogue&,
                            const EpilogueVecs&, int64_t, int32_t*, int64_t,
                            double*);

// kConvLaneBlocks[load][pairs - 1].
template <int kLoad, size_t... kI>
constexpr std::array<ConvLaneFn, kConvPairs2> conv_lane_row(
    std::index_sequence<kI...>) {
  return {&conv_lane_block<static_cast<int>(kI) + 1, kLoad>...};
}
constexpr std::array<ConvLaneFn, kConvPairs2> kConvLaneBlocks[3] = {
    conv_lane_row<kOneRun>(std::make_index_sequence<kConvPairs2>{}),
    conv_lane_row<kTwoRuns>(std::make_index_sequence<kConvPairs2>{}),
    conv_lane_row<kGather>(std::make_index_sequence<kConvPairs2>{})};

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

void avx2_conv_read(const ConvReadPlan& plan, const double* plane,
                    const double* panel, const ReadEpilogue& ep, int64_t g0,
                    int64_t g1, int32_t* counts, double* y_out) {
  const EpilogueVecs k(ep);
  const int64_t width = 2 * ep.cols;
  const int64_t block = conv_block_pairs(ep.cols, kConvPairs2);
  for (int64_t g = g0; g < g1; ++g) {
    const ConvLaneGroup& grp = plan.groups[static_cast<size_t>(g)];
    const bool gather = grp.split == 0;
    for (int64_t lane0 = 0; lane0 < grp.live; lane0 += 4) {
      HalfGroup h;
      h.lane0 = lane0;
      // Lane j (of the group) of run 1 reads p1[j], of run 2 p2[j];
      // origins ascend, so origin[split] >= split keeps p2 in the plane.
      const int32_t split2 = grp.split < grp.live ? grp.split : 0;
      h.p1 = plane + grp.origin[0] + lane0;
      h.p2 = plane + grp.origin[split2] - split2 + lane0;
      const __m256i lane = _mm256_add_epi64(_mm256_set1_epi64x(lane0),
                                            _mm256_setr_epi64x(0, 1, 2, 3));
      h.live = _mm256_cmpgt_epi64(_mm256_set1_epi64x(grp.live), lane);
      h.m1 = _mm256_and_si256(
          h.live, _mm256_cmpgt_epi64(_mm256_set1_epi64x(grp.split), lane));
      h.m2 = _mm256_andnot_si256(h.m1, h.live);
      h.idx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(grp.origin + lane0));
      int load = kGather;
      if (!gather) {
        const bool any1 = _mm256_testz_si256(h.m1, h.m1) == 0;
        const bool any2 = _mm256_testz_si256(h.m2, h.m2) == 0;
        if (any1 && any2) {
          load = kTwoRuns;
        } else {
          load = kOneRun;
          if (!any1) {  // the half lies in run 2
            h.p1 = h.p2;
            h.m1 = h.m2;
          }
        }
      }
      for (int64_t c0 = 0; c0 < ep.cols; c0 += block) {
        const int64_t pairs = std::min(block, ep.cols - c0);
        kConvLaneBlocks[load][pairs - 1](plan, grp, h, plane, panel, width,
                                         ep, k, c0, counts, g * kConvLanes,
                                         y_out);
      }
    }
  }
}

#else  // no AVX2 + FMA — stubs; dispatch never selects these.

void avx2_accumulate_rows_batch(const int32_t*, const int32_t*, int64_t,
                                const double*, int64_t, const double*,
                                int64_t, double*) {}
void avx2_read_epilogue(const double*, int64_t, int64_t, const ReadEpilogue&,
                        int32_t*, int64_t, double*) {}
void avx2_conv_read(const ConvReadPlan&, const double*, const double*,
                    const ReadEpilogue&, int64_t, int64_t, int32_t*,
                    double*) {}

#endif

}  // namespace qsnc::nn::kernels
