// AVX-512BW tier of the integer conv read (nn::igemm_conv), the only TU
// compiled with -mavx512bw (with -mavx512f -mavx512vl -mavx512dq and
// -mno-fma: it has no floating point at all). Two lane groups of the
// ConvReadPlan, 16 output positions, share one zmm of int32 lanes. Each
// row pair of the receptive field is loaded from the int16 plane as masked
// contiguous runs (or gathered), interleaved into int16 drive pairs and
// fed to one vpmaddwd + vpaddd per output channel. int32 accumulation is
// exact under the caller's overflow contract, so the result is
// bit-identical to the scalar tier in igemm.cpp.
#include "nn/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <utility>

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

namespace qsnc::nn::kernels {

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512DQ__)

namespace {

// The all-lanes mask. Full-width operations whose unmasked intrinsic
// passes an undefined vector as the merge source (cvtepu16_epi32, slli,
// i32gather) use the maskz / zero-source form under kAll instead: same
// instruction, and GCC 12 reports that undefined source as
// maybe-uninitialized.
constexpr __mmask16 kAll = 0xFFFF;

// The drive loads of lane groups g and g + 1 (the second absent past the
// last group): lane l holds position g * kConvLanes + l. runs > 0: the
// lanes of run i read base[i] + tap + l under mask[i] — each group's one
// or two runs (ConvLaneGroup::split), a run that continues across the
// group boundary merged — and dead lanes are in no run, so they load as
// zero. runs == 0 (either group gathers): each lane gathers at its
// origin, dead lanes repeating a live one.
struct Lanes16 {
  int runs = 0;
  const int16_t* base[4] = {};
  __mmask16 mask[4] = {};
  __m512i origin;
  __mmask16 live;

  Lanes16(const ConvReadPlan& plan, int64_t g, const int16_t* plane) {
    const ConvLaneGroup& lo = plan.groups[static_cast<size_t>(g)];
    const bool two = g + 1 < static_cast<int64_t>(plan.groups.size());
    const ConvLaneGroup& hi =
        plan.groups[static_cast<size_t>(two ? g + 1 : g)];
    alignas(64) int32_t o[2 * kConvLanes];
    for (int64_t j = 0; j < kConvLanes; ++j) {
      o[j] = lo.origin[j];
      o[kConvLanes + j] = two ? hi.origin[j] : lo.origin[kConvLanes - 1];
    }
    origin = _mm512_load_si512(o);
    live = static_cast<__mmask16>(
        (1u << (lo.live + (two ? hi.live : 0))) - 1);
    if (lo.split == 0 || (two && hi.split == 0)) return;  // gather
    add_group(lo, 0, plane);
    if (two) add_group(hi, kConvLanes, plane);
  }

  // The runs of one group whose lane 0 is lane l0 of the zmm.
  void add_group(const ConvLaneGroup& grp, int l0, const int16_t* plane) {
    add_run(plane + grp.origin[0] - l0, 0, grp.split, l0);
    if (grp.split < grp.live) {
      add_run(plane + grp.origin[grp.split] - grp.split - l0, grp.split,
              grp.live, l0);
    }
  }

  // Group lanes [j0, j1) reading base + l.
  void add_run(const int16_t* b, int j0, int j1, int l0) {
    const auto m = static_cast<__mmask16>(((1u << (j1 - j0)) - 1)
                                          << (l0 + j0));
    if (runs > 0 && base[runs - 1] == b) {
      mask[runs - 1] = static_cast<__mmask16>(mask[runs - 1] | m);
      return;
    }
    base[runs] = b;
    mask[runs] = m;
    ++runs;
  }
};

// The 16 int16 drives of the row at tap offset t, from kRuns runs.
template <int kRuns>
inline __m256i row16(const Lanes16& lanes, int32_t t) {
  __m256i v = _mm256_maskz_loadu_epi16(lanes.mask[0], lanes.base[0] + t);
#pragma GCC unroll 4
  for (int i = 1; i < kRuns; ++i) {
    v = _mm256_mask_loadu_epi16(v, lanes.mask[i], lanes.base[i] + t);
  }
  return v;
}

// Lane l = (drive at tap t0, drive at tap t1) of position l, the int16
// pair vpmaddwd multiplies by a weight pair. kRuns == 0 gathers.
template <int kRuns>
inline __m512i drive_pairs(const Lanes16& lanes, const int16_t* plane,
                           int32_t t0, int32_t t1) {
  if (kRuns == 0) {
    const __m512i a = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), kAll, lanes.origin, plane + t0, 2);
    const __m512i b = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), kAll, lanes.origin, plane + t1, 2);
    return _mm512_mask_blend_epi16(0xAAAAAAAAu, a,
                                   _mm512_maskz_slli_epi32(kAll, b, 16));
  }
  const __m512i a =
      _mm512_maskz_cvtepu16_epi32(kAll, row16<kRuns>(lanes, t0));
  const __m512i b =
      _mm512_maskz_cvtepu16_epi32(kAll, row16<kRuns>(lanes, t1));
  return _mm512_or_si512(a, _mm512_maskz_slli_epi32(kAll, b, 16));
}

// Output channels [c0, c0 + kCols) of one zmm of positions: kCols int32
// accumulators stay in registers across every row pair, each fed one
// vpmaddwd + vpaddd per row pair. Unlike the AVX2 tier it does not drop
// all-zero drive vectors: at lenet's shapes the compaction costs more than
// the multiplies it saves at 16 lanes. `out` is C at channel c0 and the
// zmm's first position.
template <int kCols, int kRuns>
void conv_block(const Lanes16& lanes, const int16_t* plane,
                const int32_t* taps, int64_t rows, const int32_t* pairs,
                int64_t m, int64_t c0, int64_t positions, int32_t* out) {
  __m512i acc[kCols];
#pragma GCC unroll 16
  for (int c = 0; c < kCols; ++c) acc[c] = _mm512_setzero_si512();
  const int64_t n_pairs = (rows + 1) / 2;
  for (int64_t p = 0; p < n_pairs; ++p) {
    const int32_t t0 = taps[2 * p];
    const int32_t t1 = 2 * p + 1 < rows ? taps[2 * p + 1] : t0;
    const __m512i x = drive_pairs<kRuns>(lanes, plane, t0, t1);
    const int32_t* w = pairs + p * m + c0;
#pragma GCC unroll 16
    for (int c = 0; c < kCols; ++c) {
      acc[c] = _mm512_add_epi32(
          acc[c], _mm512_madd_epi16(x, _mm512_set1_epi32(w[c])));
    }
  }
#pragma GCC unroll 16
  for (int c = 0; c < kCols; ++c) {
    _mm512_mask_storeu_epi32(out + c * positions, lanes.live, acc[c]);
  }
}

using ConvBlockFn = void (*)(const Lanes16&, const int16_t*, const int32_t*,
                             int64_t, const int32_t*, int64_t, int64_t,
                             int64_t, int32_t*);

// kConvBlocks[runs][cols - 1].
template <int kRuns, size_t... kI>
constexpr std::array<ConvBlockFn, kIConvCols512> conv_block_row(
    std::index_sequence<kI...>) {
  return {&conv_block<static_cast<int>(kI) + 1, kRuns>...};
}
template <size_t... kR>
constexpr std::array<std::array<ConvBlockFn, kIConvCols512>, sizeof...(kR)>
conv_blocks(std::index_sequence<kR...>) {
  return {conv_block_row<static_cast<int>(kR)>(
      std::make_index_sequence<kIConvCols512>{})...};
}
constexpr auto kConvBlocks = conv_blocks(std::make_index_sequence<5>{});

}  // namespace

void avx512_igemm_conv(const ConvReadPlan& plan, const int32_t* pairs,
                       int64_t m, const int16_t* plane, int32_t* c) {
  const int64_t block = conv_block_pairs(m, kIConvCols512);
  const int64_t groups = static_cast<int64_t>(plan.groups.size());
  for (int64_t g = 0; g < groups; g += 2) {
    const Lanes16 lanes(plan, g, plane);
    for (int64_t c0 = 0; c0 < m; c0 += block) {
      const int64_t cols = std::min(block, m - c0);
      kConvBlocks[lanes.runs][cols - 1](
          lanes, plane, plan.taps.data(), plan.rows(), pairs, m, c0,
          plan.positions, c + c0 * plan.positions + g * kConvLanes);
    }
  }
}

#else  // no AVX-512BW — stub; dispatch never selects it.

void avx512_igemm_conv(const ConvReadPlan&, const int32_t*, int64_t,
                       const int16_t*, int32_t*) {}

#endif

}  // namespace qsnc::nn::kernels
