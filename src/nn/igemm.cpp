#include "nn/igemm.h"

#include <algorithm>
#include <cstring>

#include "nn/gemm_kernels.h"
#include "nn/simd.h"
#include "util/thread_pool.h"

namespace qsnc::nn {

namespace {

// Same fan-out economics as the fp32 kernels: below this MAC count the
// fork/join overhead dominates.
constexpr int64_t kParallelMinMacs = int64_t{1} << 17;

// Per-thread AVX2 B panel for the unpacked entry points.
thread_local util::aligned_vector<int16_t> tl_ipanel;

const int16_t* pack_ib(const int16_t* b, int64_t k, int64_t n) {
  tl_ipanel.resize(static_cast<size_t>(kernels::ib_panel_int16s(k, n)));
  kernels::pack_ib_panel(b, k, n, tl_ipanel.data());
  return tl_ipanel.data();
}

// Scalar reference: plain triple loop; the j-inner form auto-vectorizes
// acceptably and integer math makes every ordering equivalent.
void igemm_acc_rows_scalar(const int16_t* a, const int16_t* b, int32_t* c,
                           int64_t k, int64_t n, int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) {
    const int16_t* arow = a + i * k;
    int32_t* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const int32_t av = arow[kk];
      if (av == 0) continue;  // quantized signals are sparse
      const int16_t* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += av * static_cast<int32_t>(brow[j]);
      }
    }
  }
}

// Reads b_panel on the AVX2 path, else b_raw.
void igemm_acc_dispatch(const int16_t* a, const int16_t* b_raw,
                        const int16_t* b_panel, int32_t* c, int64_t m,
                        int64_t k, int64_t n) {
  const bool use_simd = simd::use_avx2();
  auto rows = [&](int64_t i0, int64_t i1) {
    if (use_simd) {
      kernels::avx2_igemm_acc_rows(a, b_panel, c, k, n, i0, i1);
    } else {
      igemm_acc_rows_scalar(a, b_raw, c, k, n, i0, i1);
    }
  };
  if (m * k * n < kParallelMinMacs) {
    rows(0, m);
    return;
  }
  util::parallel_for(0, m, 16, rows);
}

// Zeroes C[m x n]. An empty C may be a null pointer, which memset must not
// be handed even for a zero length.
void zero_output(int32_t* c, int64_t m, int64_t n) {
  if (m * n == 0) return;
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(int32_t));
}

}  // namespace

void igemm_acc(const int16_t* a, const int16_t* b, int32_t* c, int64_t m,
               int64_t k, int64_t n) {
  const int16_t* panel = simd::use_avx2() ? pack_ib(b, k, n) : nullptr;
  igemm_acc_dispatch(a, b, panel, c, m, k, n);
}

void igemm(const int16_t* a, const int16_t* b, int32_t* c, int64_t m,
           int64_t k, int64_t n) {
  zero_output(c, m, n);
  igemm_acc(a, b, c, m, k, n);
}

IConvWeights::IConvWeights(const int16_t* w, int64_t m, int64_t k)
    : m_(m), pairs_(static_cast<size_t>((k + 1) / 2 * m)) {
  for (int64_t p = 0; 2 * p < k; ++p) {
    for (int64_t oc = 0; oc < m; ++oc) {
      const int16_t lo = w[oc * k + 2 * p];
      const int16_t hi = 2 * p + 1 < k ? w[oc * k + 2 * p + 1] : int16_t{0};
      pairs_[static_cast<size_t>(p * m + oc)] = static_cast<int32_t>(
          static_cast<uint32_t>(static_cast<uint16_t>(lo)) |
          static_cast<uint32_t>(static_cast<uint16_t>(hi)) << 16);
    }
  }
}

int64_t iconv_plane_int16s(const ConvReadPlan& plan) {
  return plan.in_c * plan.plane_h * plan.plane_w + kConvLanes;
}

void fill_iconv_plane(const ConvReadPlan& plan, const int16_t* image,
                      int16_t* plane) {
  std::fill(plane, plane + iconv_plane_int16s(plan), int16_t{0});
  for (int64_t ci = 0; ci < plan.in_c; ++ci) {
    for (int64_t y = 0; y < plan.in_h; ++y) {
      std::memcpy(plane + (ci * plan.plane_h + y + plan.pad) * plan.plane_w +
                      plan.pad,
                  image + (ci * plan.in_h + y) * plan.in_w,
                  static_cast<size_t>(plan.in_w) * sizeof(int16_t));
    }
  }
}

namespace kernels {

void scalar_igemm_conv(const ConvReadPlan& plan, const int32_t* pairs,
                       int64_t m, const int16_t* plane, int32_t* c) {
  // Output positions go in chunks of kGroupChunk lane groups. Per row, the
  // chunk's drives are read once (origin + tap) into one im2col row
  // segment; a segment of zeros is dropped, and every channel with a
  // nonzero weight adds weight x drive along it (the position loop
  // vectorizes).
  constexpr int64_t kGroupChunk = 64;
  int16_t drive[kGroupChunk * kConvLanes];
  const int64_t groups = static_cast<int64_t>(plan.groups.size());
  zero_output(c, m, plan.positions);
  for (int64_t g0 = 0; g0 < groups; g0 += kGroupChunk) {
    const int64_t g1 = std::min(groups, g0 + kGroupChunk);
    const int64_t p0 = g0 * kConvLanes;
    const int64_t n = std::min(plan.positions, g1 * kConvLanes) - p0;
    for (int64_t r = 0; r < plan.rows(); ++r) {
      const int32_t t = plan.taps[static_cast<size_t>(r)];
      int16_t any = 0;
      for (int64_t g = g0; g < g1; ++g) {
        const ConvLaneGroup& grp = plan.groups[static_cast<size_t>(g)];
        int16_t* d = drive + (g - g0) * kConvLanes;
        for (int64_t j = 0; j < kConvLanes; ++j) {
          d[j] = plane[grp.origin[j] + t];
          any = static_cast<int16_t>(any | d[j]);
        }
      }
      if (any == 0) continue;  // quantized signals are sparse
      for (int64_t oc = 0; oc < m; ++oc) {
        // W[oc][r] is half r % 2 of pair r / 2.
        const int16_t w =
            static_cast<int16_t>(pairs[(r / 2) * m + oc] >> (16 * (r % 2)));
        if (w == 0) continue;
        int32_t* out = c + oc * plan.positions + p0;
        for (int64_t i = 0; i < n; ++i) out[i] += w * drive[i];
      }
    }
  }
}

}  // namespace kernels

void igemm_conv(const ConvReadPlan& plan, const IConvWeights& w,
                const int16_t* plane, int32_t* c) {
  if (simd::use_avx512()) {
    kernels::avx512_igemm_conv(plan, w.pairs(), w.m(), plane, c);
  } else if (simd::use_avx2()) {
    kernels::avx2_igemm_conv(plan, w.pairs(), w.m(), plane, c);
  } else {
    kernels::scalar_igemm_conv(plan, w.pairs(), w.m(), plane, c);
  }
}

IGemmPackedB::IGemmPackedB(const int16_t* b, int64_t k, int64_t n)
    : k_(k),
      n_(n),
      raw_(b, b + static_cast<size_t>(k * n)),
      panel_(static_cast<size_t>(kernels::ib_panel_int16s(k, n))) {
  kernels::pack_ib_panel(b, k, n, panel_.data());
}

void igemm_prepacked(const int16_t* a, const IGemmPackedB& b, int32_t* c,
                     int64_t m) {
  zero_output(c, m, b.n());
  igemm_acc_dispatch(a, b.raw(), b.panel(), c, m, b.k(), b.n());
}

}  // namespace qsnc::nn
