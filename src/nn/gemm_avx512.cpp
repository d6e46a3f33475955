// AVX-512 tier of the SNC collapsed read: the conv lanes read, the batched
// fp64 row drive and the read epilogue. This TU is compiled with -mavx512f
// -mavx512vl -mavx512dq -mfma (the integer conv read's AVX-512 tier is in
// igemm_avx512.cpp). Every crossbar term is one explicit
// vfmadd (the std::fma of nn::crossbar_mac), and -ffp-contract=off keeps
// the compiler from fusing anything else, so the results are bit-identical
// to the scalar loops in gemm.cpp (see gemm_kernels.h). The row drive's
// vectors span columns and the conv read's span positions; either way each
// column sum is its own fused chain in the scalar loop's order.
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
        acc[i][k] = _mm512_fmadd_pd(v, g[k], acc[i][k]);
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
// min, max, cvttpd_epi32, i32gather) use the maskz form under kAll instead: same
// instruction, and GCC 12 reports that undefined source as
// maybe-uninitialized.
constexpr __mmask8 kAll = 0xFF;

// Lanes [0, n) of an 8-lane mask, n clamped to [0, 8].
__mmask8 first_lanes(int64_t n) {
  return n >= 8 ? __mmask8{0xFF}
                : static_cast<__mmask8>((1u << std::max<int64_t>(n, 0)) - 1);
}

// How a conv lane group loads its drives (ConvLaneGroup::split).
enum LaneLoad { kOneRun, kTwoRuns, kGather };

// Crossbar rows whose drive vectors are filtered at a time.
constexpr int64_t kConvRowChunk = 64;

// The rounding constants of a read epilogue, broadcast once per call.
struct EpilogueVecs {
  __m512d dg, step, half, lo, hi;
  explicit EpilogueVecs(const ReadEpilogue& ep)
      : dg(_mm512_set1_pd(ep.dg)),
        step(_mm512_set1_pd(ep.step)),
        half(_mm512_set1_pd(0.5)),
        lo(_mm512_set1_pd(count_lo(ep))),
        hi(_mm512_set1_pd(count_hi(ep))) {}
};

// How one lane group loads a row's 8 drives from the padded plane: lane j
// of run 1 reads p1[j + tap], of run 2 p2[j + tap]; a gather reads
// plane[origin[j] + tap].
struct LaneDrives {
  int load;
  __mmask8 live, run1, run2;
  const double* plane;
  const double* p1;
  const double* p2;
  __m256i idx;
  int64_t pos0;  // the group's first position
  int32_t lanes;  // live positions

  LaneDrives(const ConvLaneGroup& grp, const double* pl, int64_t g)
      : load(grp.split == 0          ? kGather
             : grp.split == grp.live ? kOneRun
                                     : kTwoRuns),
        live(first_lanes(grp.live)),
        run1(load == kTwoRuns ? first_lanes(grp.split) : live),
        run2(static_cast<__mmask8>(live & ~run1)),
        plane(pl),
        p1(pl + grp.origin[0]),
        // Origins ascend, so origin[split] >= split keeps p2 in the plane.
        p2(load == kTwoRuns ? pl + grp.origin[grp.split] - grp.split : p1),
        idx(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(grp.origin))),
        pos0(g * kConvLanes),
        lanes(grp.live) {}

  // Drives of the row at plane offset t (the load kind is fixed per group,
  // so the branch predicts).
  __m512d at(int32_t t) const {
    if (load == kOneRun) return _mm512_maskz_loadu_pd(live, p1 + t);
    if (load == kTwoRuns) {
      return _mm512_mask_loadu_pd(_mm512_maskz_loadu_pd(run1, p1 + t), run2,
                                  p2 + t);
    }
    return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), kAll, idx, plane + t,
                                    8);
  }
};

// kGroups lane groups of avx512_conv_read over kPairs (plus, minus) column
// pairs from logical column c0: kGroups x 2 * kPairs zmm accumulators, one
// per (group, panel column), each lane one position, stay in registers
// across every row. Rows go in chunks: each row's drives load once per
// group (one or two masked contiguous runs of the plane, or a gather) into
// a stack buffer, and a row whose drives are zero in every lane of every
// group is dropped (branch-free); skipping it changes no bit, since it
// would leave every sum unchanged. Each kept row then broadcasts each
// panel entry once and feeds it to every group's accumulator with one
// vfmadd. The epilogue runs in registers and stores each column's 8
// counts per group with one masked store.
template <int kPairs, int kGroups>
void conv_lane_block(const ConvReadPlan& plan, const LaneDrives* in,
                     const double* panel, int64_t width,
                     const ReadEpilogue& ep, const EpilogueVecs& k,
                     int64_t c0, int32_t* counts, double* y_out) {
  // Local copies (the caller always passes two): the drive stores below
  // may alias the caller's structs, which would reload every field per
  // row.
  const LaneDrives groups[2] = {in[0], in[1]};
  const int32_t* taps = plan.taps.data();
  const int64_t rows = plan.rows();
  __m512d acc[kGroups][2 * kPairs];
#pragma GCC unroll 2
  for (int q = 0; q < kGroups; ++q) {
#pragma GCC unroll 32
    for (int c = 0; c < 2 * kPairs; ++c) acc[q][c] = _mm512_setzero_pd();
  }
  alignas(64) double live_v[kConvRowChunk * 8 * kGroups];
  int32_t live_r[kConvRowChunk];
  for (int64_t r0 = 0; r0 < rows; r0 += kConvRowChunk) {
    const int64_t r1 = std::min(rows, r0 + kConvRowChunk);
    int64_t n = 0;
    for (int64_t r = r0; r < r1; ++r) {
      const int32_t t = taps[r];
      __mmask8 any = 0;
#pragma GCC unroll 2
      for (int q = 0; q < kGroups; ++q) {
        const __m512d v = groups[q].at(t);
        _mm512_store_pd(live_v + (n * kGroups + q) * 8, v);
        const __m512i bits = _mm512_castpd_si512(v);
        any = static_cast<__mmask8>(any | _mm512_test_epi64_mask(bits, bits));
      }
      live_r[n] = static_cast<int32_t>(r);
      n += any != 0;
    }
    for (int64_t i = 0; i < n; ++i) {
      __m512d v[kGroups];
#pragma GCC unroll 2
      for (int q = 0; q < kGroups; ++q) {
        v[q] = _mm512_load_pd(live_v + (i * kGroups + q) * 8);
      }
      const double* g = panel + live_r[i] * width + 2 * c0;
#pragma GCC unroll 32
      for (int c = 0; c < 2 * kPairs; ++c) {
        const __m512d gc = _mm512_set1_pd(g[c]);
#pragma GCC unroll 2
        for (int q = 0; q < kGroups; ++q) {
          acc[q][c] = _mm512_fmadd_pd(v[q], gc, acc[q][c]);
        }
      }
    }
  }
#pragma GCC unroll 2
  for (int q = 0; q < kGroups; ++q) {
    const LaneDrives& grp = groups[q];
    const bool last = grp.pos0 + grp.lanes == plan.positions;
#pragma GCC unroll 16
    for (int c = 0; c < kPairs; ++c) {
      const __m512d d = _mm512_sub_pd(acc[q][2 * c], acc[q][2 * c + 1]);
      const __m512d y = _mm512_add_pd(
          _mm512_mul_pd(k.step, _mm512_div_pd(d, k.dg)),
          _mm512_set1_pd(static_cast<double>(ep.bias[c0 + c])));
      __m512d r = _mm512_maskz_roundscale_pd(
          kAll, _mm512_add_pd(y, k.half),
          _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
      r = _mm512_maskz_min_pd(kAll, _mm512_maskz_max_pd(kAll, r, k.lo), k.hi);
      _mm256_mask_storeu_epi32(
          counts + (c0 + c) * plan.positions + grp.pos0, grp.live,
          _mm512_maskz_cvttpd_epi32(kAll, r));
      if (y_out != nullptr && last) {
        alignas(64) double lanes[8];
        _mm512_store_pd(lanes, y);
        y_out[c0 + c] = lanes[grp.lanes - 1];
      }
    }
  }
}

using ConvLaneFn = void (*)(const ConvReadPlan&, const LaneDrives*,
                            const double*, int64_t, const ReadEpilogue&,
                            const EpilogueVecs&, int64_t, int32_t*, double*);

// kConvLaneBlocks[groups - 1][pairs - 1]: one group with up to
// kConvPairs512 pairs, or two groups with up to kConvPairs512 / 2.
template <int kGroups, size_t... kI>
constexpr std::array<ConvLaneFn, kConvPairs512> conv_lane_row(
    std::index_sequence<kI...>) {
  return {&conv_lane_block<static_cast<int>(kI) + 1, kGroups>...};
}
constexpr std::array<ConvLaneFn, kConvPairs512> kConvLaneBlocks[2] = {
    conv_lane_row<1>(std::make_index_sequence<kConvPairs512>{}),
    conv_lane_row<2>(std::make_index_sequence<kConvPairs512 / 2>{})};

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

void avx512_conv_read(const ConvReadPlan& plan, const double* plane,
                      const double* panel, const ReadEpilogue& ep, int64_t g0,
                      int64_t g1, int32_t* counts, double* y_out) {
  const EpilogueVecs k(ep);
  const int64_t width = 2 * ep.cols;
  // A stage whose columns fit half the register file reads two lane
  // groups at a time (the last one alone when the count is odd), so each
  // broadcast panel entry feeds two vfmadds; wider stages read one group
  // at a time in column blocks. Each shape wins where it is used (the
  // conv_read_grouping_ab rows of BENCH_kernels.json): pairing on lenet's
  // 6-column conv1, one group on its 16-column conv2, where pairs would
  // need blocks of half the width and so twice the drive loads.
  const int64_t step = ep.cols <= kConvPairs512 / 2 ? 2 : 1;
  const int64_t block = conv_block_pairs(ep.cols, kConvPairs512);
  for (int64_t g = g0; g < g1; g += step) {
    const int64_t n = std::min(step, g1 - g);
    const LaneDrives groups[2] = {
        LaneDrives(plan.groups[static_cast<size_t>(g)], plane, g),
        LaneDrives(plan.groups[static_cast<size_t>(g + n - 1)], plane,
                   g + n - 1)};
    for (int64_t c0 = 0; c0 < ep.cols; c0 += block) {
      const int64_t pairs = std::min(block, ep.cols - c0);
      kConvLaneBlocks[n - 1][pairs - 1](plan, groups, panel, width, ep, k,
                                        c0, counts, y_out);
    }
  }
}

#else  // no AVX-512 — stubs; dispatch never selects these.

void avx512_accumulate_rows_batch(const int32_t*, const int32_t*, int64_t,
                                  const double*, int64_t, const double*,
                                  int64_t, double*) {}
void avx512_read_epilogue(const double*, int64_t, int64_t,
                          const ReadEpilogue&, int32_t*, int64_t, double*) {}
void avx512_conv_read(const ConvReadPlan&, const double*, const double*,
                      const ReadEpilogue&, int64_t, int64_t, int32_t*,
                      double*) {}

#endif

}  // namespace qsnc::nn::kernels
