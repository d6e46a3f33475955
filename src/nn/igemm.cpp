#include "nn/igemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/gemm_kernels.h"
#include "nn/im2col.h"
#include "nn/simd.h"
#include "util/thread_pool.h"

namespace qsnc::nn {

namespace {

// Same fan-out economics as the fp32 kernels: below this MAC count the
// fork/join overhead dominates.
constexpr int64_t kParallelMinMacs = int64_t{1} << 17;

// Per-thread AVX2 B panel for the unpacked entry points.
thread_local util::aligned_vector<int16_t> tl_ipanel;

// Per-thread igemm_conv scratch: the zero-padded image, its gather offsets
// and (scalar path only) the int16 im2col matrix.
thread_local util::aligned_vector<int16_t> tl_padded;
thread_local std::vector<int32_t> tl_offsets;
thread_local util::aligned_vector<int16_t> tl_icols;

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

// Reads b_panel when use_simd, else b_raw.
void igemm_acc_on(bool use_simd, const int16_t* a, const int16_t* b_raw,
                  const int16_t* b_panel, int32_t* c, int64_t m, int64_t k,
                  int64_t n) {
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

void igemm_acc_dispatch(const int16_t* a, const int16_t* b_raw,
                        const int16_t* b_panel, int32_t* c, int64_t m,
                        int64_t k, int64_t n) {
  igemm_acc_on(simd::use_avx2(), a, b_raw, b_panel, c, m, k, n);
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

void igemm_conv(const int16_t* w, const int16_t* image, int64_t channels,
                int64_t height, int64_t width, int64_t kernel, int64_t stride,
                int64_t pad, int64_t m, int32_t* c) {
  const int64_t hp = height + 2 * pad;
  const int64_t wp = width + 2 * pad;
  const int64_t out_h = conv_out_extent(height, kernel, stride, pad);
  const int64_t out_w = conv_out_extent(width, kernel, stride, pad);
  const int64_t k = channels * kernel * kernel;
  const int64_t n = out_h * out_w;

  // Zero-padded copy, so every tap is an in-bounds read: cols[kk][j] =
  // src[row_off[kk] + col_off[j]] with kk = (ci, ky, kx), j = (oy, ox).
  constexpr int64_t slack = kernels::kGatherSlack;
  tl_padded.assign(static_cast<size_t>(channels * hp * wp + 2 * slack), 0);
  int16_t* src = tl_padded.data() + slack;
  for (int64_t ci = 0; ci < channels; ++ci) {
    for (int64_t y = 0; y < height; ++y) {
      std::memcpy(src + (ci * hp + y + pad) * wp + pad,
                  image + (ci * height + y) * width,
                  static_cast<size_t>(width) * sizeof(int16_t));
    }
  }
  tl_offsets.clear();
  for (int64_t ci = 0; ci < channels; ++ci) {
    for (int64_t ky = 0; ky < kernel; ++ky) {
      for (int64_t kx = 0; kx < kernel; ++kx) {
        tl_offsets.push_back(static_cast<int32_t>((ci * hp + ky) * wp + kx));
      }
    }
  }
  for (int64_t oy = 0; oy < out_h; ++oy) {
    for (int64_t ox = 0; ox < out_w; ++ox) {
      tl_offsets.push_back(static_cast<int32_t>((oy * wp + ox) * stride));
    }
  }
  const int32_t* row_off = tl_offsets.data();
  const int32_t* col_off = row_off + k;

  zero_output(c, m, n);
  if (simd::use_avx2()) {
    tl_ipanel.resize(static_cast<size_t>(kernels::ib_panel_int16s(k, n)));
    kernels::avx2_pack_gather_panel(src, row_off, k, col_off, n,
                                    tl_ipanel.data());
    igemm_acc_on(true, w, nullptr, tl_ipanel.data(), c, m, k, n);
    return;
  }
  tl_icols.resize(static_cast<size_t>(k * n));
  for (int64_t kk = 0; kk < k; ++kk) {
    const int16_t* s = src + row_off[kk];
    int16_t* dst = tl_icols.data() + kk * n;
    for (int64_t j = 0; j < n; ++j) dst[j] = s[col_off[j]];
  }
  igemm_acc_on(false, w, tl_icols.data(), nullptr, c, m, k, n);
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
