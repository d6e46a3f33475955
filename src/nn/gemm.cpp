#include "nn/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/gemm_kernels.h"
#include "nn/im2col.h"
#include "nn/simd.h"
#include "util/aligned.h"
#include "util/thread_pool.h"

namespace qsnc::nn {

namespace {
// Block extents chosen so one A-panel + one B-panel fit comfortably in L1/L2
// on typical x86 cores. The i-k-j loop order keeps the innermost loop a
// contiguous SAXPY over C and B rows, which GCC auto-vectorizes. The SIMD
// micro-kernels share the same extents (gemm_kernels.h); kBlockK in
// particular is part of gemm_a_bt_acc's numeric contract.
constexpr int64_t kBlockM = kernels::kBlockM;
constexpr int64_t kBlockK = kernels::kBlockK;
constexpr int64_t kBlockN = kernels::kBlockN;

// Minimum FLOP count (2*m*k*n) before a kernel fans out to the pool;
// below this the fork/join overhead dominates the multiply itself.
constexpr int64_t kParallelMinFlops = int64_t{1} << 18;

// Per-thread B-panel scratch. Each chunk packs the active B block into its
// own copy, so concurrent M-chunks share no mutable state and the panel
// rows sit contiguously for the SAXPY sweep.
thread_local std::vector<float> tl_pack;

// Per-thread 64-byte-aligned panel for the SIMD path. Packed once per call
// on the calling thread before any fan-out; workers only read it.
thread_local util::aligned_vector<float> tl_simd_panel;

float* simd_panel(int64_t k, int64_t n) {
  tl_simd_panel.resize(
      static_cast<size_t>(kernels::gemm_panel_floats(k, n)));
  return tl_simd_panel.data();
}

// Zeroes C[m x n]. An empty C may be a null pointer, which memset must not
// be handed even for a zero length.
void zero_output(float* c, int64_t m, int64_t n) {
  if (m * n == 0) return;
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
}

// Rows [i0, i1) of C += A*B under the shared blocking. The per-(i, j)
// accumulation order (k ascending) is independent of the row partition, so
// any split of [0, m) — including the serial single-chunk one — produces
// bit-identical results.
void gemm_acc_rows(const float* a, const float* b, float* c, int64_t k,
                   int64_t n, int64_t i0, int64_t i1) {
  std::vector<float>& pack = tl_pack;
  pack.resize(static_cast<size_t>(kBlockK * kBlockN));
  for (int64_t ib = i0; ib < i1; ib += kBlockM) {
    const int64_t ie = std::min(ib + kBlockM, i1);
    for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const int64_t k1 = std::min(k0 + kBlockK, k);
      for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const int64_t j1 = std::min(j0 + kBlockN, n);
        const int64_t jw = j1 - j0;
        for (int64_t kk = k0; kk < k1; ++kk) {
          std::memcpy(pack.data() + (kk - k0) * jw, b + kk * n + j0,
                      static_cast<size_t>(jw) * sizeof(float));
        }
        for (int64_t i = ib; i < ie; ++i) {
          float* crow = c + i * n + j0;
          const float* arow = a + i * k;
          for (int64_t kk = k0; kk < k1; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f) continue;  // sparse activations are common here
            const float* brow = pack.data() + (kk - k0) * jw;
            for (int64_t j = 0; j < jw; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}
}  // namespace

void gemm_acc(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n) {
  if (simd::use_avx2()) {
    float* bp = simd_panel(k, n);
    kernels::pack_b_panel(b, k, n, bp);
    if (2 * m * k * n < kParallelMinFlops) {
      kernels::avx2_gemm_acc_rows(a, bp, c, k, n, 0, m);
      return;
    }
    util::parallel_for(0, m, kBlockM, [&](int64_t i0, int64_t i1) {
      kernels::avx2_gemm_acc_rows(a, bp, c, k, n, i0, i1);
    });
    return;
  }
  if (2 * m * k * n < kParallelMinFlops) {
    gemm_acc_rows(a, b, c, k, n, 0, m);
    return;
  }
  util::parallel_for(0, m, kBlockM, [&](int64_t i0, int64_t i1) {
    gemm_acc_rows(a, b, c, k, n, i0, i1);
  });
}

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  if (simd::use_avx2()) {
    float* bp = simd_panel(k, n);
    kernels::pack_b_panel(b, k, n, bp);
    if (2 * m * k * n < kParallelMinFlops) {
      zero_output(c, m, n);
      kernels::avx2_gemm_acc_rows(a, bp, c, k, n, 0, m);
      return;
    }
    util::parallel_for(0, m, kBlockM, [&](int64_t i0, int64_t i1) {
      std::memset(c + i0 * n, 0,
                  static_cast<size_t>((i1 - i0) * n) * sizeof(float));
      kernels::avx2_gemm_acc_rows(a, bp, c, k, n, i0, i1);
    });
    return;
  }
  if (2 * m * k * n < kParallelMinFlops) {
    zero_output(c, m, n);
    gemm_acc_rows(a, b, c, k, n, 0, m);
    return;
  }
  util::parallel_for(0, m, kBlockM, [&](int64_t i0, int64_t i1) {
    std::memset(c + i0 * n, 0,
                static_cast<size_t>((i1 - i0) * n) * sizeof(float));
    gemm_acc_rows(a, b, c, k, n, i0, i1);
  });
}

void gemm_at_b_acc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  // A stored [k x m]: element A^T(i, kk) = a[kk * m + i].
  //
  // The schedule is chosen from the problem shape only — never the pool
  // size — so results are bit-identical at any thread count:
  //  * wide M: partition the output rows; each chunk keeps the k-outer
  //    order (reading a contiguous a-row slice per kk) and writes disjoint
  //    C rows, so no synchronization and no reduction are needed.
  //  * narrow M over a deep K (e.g. a small dense head's dW): too few rows
  //    to spread, so split K into fixed kBlockK chunks accumulated into
  //    private C buffers and combined by a deterministic tree reduction.
  // The SIMD kernel mirrors the scalar per-(i, j) term order of whichever
  // path is taken, so the dispatch below is orthogonal to the path choice.
  const bool use_simd = simd::use_avx2();
  const bool split_k =
      m < 32 && k >= 2 * kBlockK && m * n <= (int64_t{1} << 18);
  if (!split_k) {
    if (use_simd) {
      float* bp = simd_panel(k, n);
      kernels::pack_b_panel(b, k, n, bp);
      if (2 * m * k * n < kParallelMinFlops) {
        kernels::avx2_gemm_at_b_acc_rows(a, bp, c, m, k, n, 0, m);
        return;
      }
      util::parallel_for(0, m, kBlockM / 4, [&](int64_t i0, int64_t i1) {
        kernels::avx2_gemm_at_b_acc_rows(a, bp, c, m, k, n, i0, i1);
      });
      return;
    }
    auto rows = [&](int64_t i0, int64_t i1) {
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* arow = a + kk * m;
        const float* brow = b + kk * n;
        for (int64_t i = i0; i < i1; ++i) {
          const float av = arow[i];
          if (av == 0.0f) continue;
          float* crow = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    };
    if (2 * m * k * n < kParallelMinFlops) {
      rows(0, m);
      return;
    }
    util::parallel_for(0, m, kBlockM / 4, rows);
    return;
  }

  const int64_t chunks = (k + kBlockK - 1) / kBlockK;
  const int64_t csize = m * n;
  std::vector<float> partials(static_cast<size_t>(chunks * csize), 0.0f);
  util::parallel_for(0, chunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t ch = c0; ch < c1; ++ch) {
      float* pc = partials.data() + ch * csize;
      const int64_t kb = ch * kBlockK;
      const int64_t ke = std::min(kb + kBlockK, k);
      if (use_simd) {
        // Each chunk packs its own k-slice of B; the per-(i, j) term order
        // inside the chunk matches the scalar loop below, and the
        // cross-chunk combine is the same tree reduction either way.
        float* bp = simd_panel(ke - kb, n);
        kernels::pack_b_panel(b + kb * n, ke - kb, n, bp);
        kernels::avx2_gemm_at_b_acc_rows(a + kb * m, bp, pc, m, ke - kb, n,
                                         0, m);
        continue;
      }
      for (int64_t kk = kb; kk < ke; ++kk) {
        const float* arow = a + kk * m;
        const float* brow = b + kk * n;
        for (int64_t i = 0; i < m; ++i) {
          const float av = arow[i];
          if (av == 0.0f) continue;
          float* prow = pc + i * n;
          for (int64_t j = 0; j < n; ++j) {
            prow[j] += av * brow[j];
          }
        }
      }
    }
  });
  // Tree reduction: pair (ch, ch + stride) in a fixed pattern set by the
  // chunk count alone, so the float summation order never varies.
  for (int64_t stride = 1; stride < chunks; stride *= 2) {
    const int64_t pairs = (chunks + 2 * stride - 1) / (2 * stride);
    util::parallel_for(0, pairs, 1, [&](int64_t p0, int64_t p1) {
      for (int64_t p = p0; p < p1; ++p) {
        const int64_t dst = p * 2 * stride;
        const int64_t src = dst + stride;
        if (src >= chunks) continue;
        float* d = partials.data() + dst * csize;
        const float* s = partials.data() + src * csize;
        for (int64_t e = 0; e < csize; ++e) d[e] += s[e];
      }
    });
  }
  for (int64_t e = 0; e < csize; ++e) c[e] += partials[static_cast<size_t>(e)];
}

void gemm_a_bt_acc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  // B stored [n x k]: element B^T(kk, j) = b[j * k + kk]. Blocked with the
  // shared extents so one A-panel plus the kBlockN B rows it dots against
  // stay cache-resident; per (i, j) the k-blocks accumulate in ascending
  // order regardless of the row partition (bit-identical at any pool size).
  if (simd::use_avx2()) {
    float* bp = simd_panel(k, n);
    kernels::pack_bt_panel(b, k, n, bp);
    if (2 * m * k * n < kParallelMinFlops) {
      kernels::avx2_gemm_a_bt_acc_rows(a, bp, c, k, n, 0, m);
      return;
    }
    util::parallel_for(0, m, kBlockM, [&](int64_t i0, int64_t i1) {
      kernels::avx2_gemm_a_bt_acc_rows(a, bp, c, k, n, i0, i1);
    });
    return;
  }
  auto rows = [&](int64_t i0, int64_t i1) {
    for (int64_t ib = i0; ib < i1; ib += kBlockM) {
      const int64_t ie = std::min(ib + kBlockM, i1);
      for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const int64_t k1 = std::min(k0 + kBlockK, k);
        for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
          const int64_t j1 = std::min(j0 + kBlockN, n);
          for (int64_t i = ib; i < ie; ++i) {
            const float* arow = a + i * k;
            float* crow = c + i * n;
            for (int64_t j = j0; j < j1; ++j) {
              const float* brow = b + j * k;
              float acc = 0.0f;
              for (int64_t kk = k0; kk < k1; ++kk) {
                acc += arow[kk] * brow[kk];
              }
              crow[j] += acc;
            }
          }
        }
      }
    }
  };
  if (2 * m * k * n < kParallelMinFlops) {
    rows(0, m);
    return;
  }
  util::parallel_for(0, m, kBlockM, rows);
}

namespace kernels {

QSNC_FMA_CLONES
void scalar_accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                                  int64_t n_events, const double* drives,
                                  int64_t batch, const double* panel,
                                  int64_t width, double* acc) {
  for (int64_t b = 0; b < batch; ++b) {
    double* a = acc + b * width;
    std::fill(a, a + width, 0.0);
    for (int64_t e = 0; e < n_events; ++e) {
      const double v = drives[static_cast<int64_t>(srcs[e]) * batch + b];
      const double* row = panel + static_cast<int64_t>(rows[e]) * width;
      for (int64_t c = 0; c < width; ++c) a[c] = crossbar_mac(v, row[c], a[c]);
    }
  }
}

void scalar_read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                          const ReadEpilogue& ep, int32_t* counts,
                          int64_t count_stride, double* y_out) {
  const double lo = count_lo(ep);
  const double hi = count_hi(ep);
  for (int64_t i = 0; i < n; ++i) {
    const double* a = acc + i * acc_stride;
    for (int64_t c = 0; c < ep.cols; ++c) {
      const double y = ep.step * ((a[2 * c] - a[2 * c + 1]) / ep.dg) +
                       static_cast<double>(ep.bias[c]);
      // The SIMD tiers' maxpd / minpd, operand order included.
      double r = std::floor(y + 0.5);
      r = r > lo ? r : lo;
      r = r < hi ? r : hi;
      counts[c * count_stride + i] = static_cast<int32_t>(r);
      if (y_out != nullptr) y_out[c] = y;
    }
  }
}

QSNC_FMA_CLONES
void scalar_conv_read(const ConvReadPlan& plan, const double* plane,
                      const double* panel, const ReadEpilogue& ep, int64_t g0,
                      int64_t g1, int32_t* counts, double* y_out) {
  // Column blocks of kPairs (plus, minus) pairs keep the sums on the stack.
  constexpr int64_t kPairs = 32;
  double acc[2 * kPairs];
  const int64_t width = 2 * ep.cols;
  const int64_t rows = plan.rows();
  const int32_t* taps = plan.taps.data();
  for (int64_t g = g0; g < g1; ++g) {
    const ConvLaneGroup& grp = plan.groups[static_cast<size_t>(g)];
    for (int64_t j = 0; j < grp.live; ++j) {
      const int64_t pos = g * kConvLanes + j;
      const double* field = plane + grp.origin[j];
      for (int64_t c0 = 0; c0 < ep.cols; c0 += kPairs) {
        const int64_t n = std::min(kPairs, ep.cols - c0);
        std::fill(acc, acc + 2 * n, 0.0);
        for (int64_t r = 0; r < rows; ++r) {
          const double v = field[taps[r]];
          if (v == 0.0) continue;
          const double* row = panel + r * width + 2 * c0;
          for (int64_t k = 0; k < 2 * n; ++k) {
            acc[k] = crossbar_mac(v, row[k], acc[k]);
          }
        }
        ReadEpilogue block = ep;
        block.cols = n;
        block.bias = ep.bias + c0;
        scalar_read_epilogue(
            acc, 1, 0, block, counts + c0 * plan.positions + pos,
            plan.positions,
            y_out != nullptr && pos == plan.positions - 1 ? y_out + c0
                                                          : nullptr);
      }
    }
  }
}

}  // namespace kernels

void accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                           int64_t n_events, const double* drives,
                           int64_t batch, const double* panel, int64_t width,
                           double* acc) {
  if (simd::use_avx512()) {
    kernels::avx512_accumulate_rows_batch(rows, srcs, n_events, drives, batch,
                                          panel, width, acc);
  } else if (simd::use_avx2_fma()) {
    kernels::avx2_accumulate_rows_batch(rows, srcs, n_events, drives, batch,
                                        panel, width, acc);
  } else {
    kernels::scalar_accumulate_rows_batch(rows, srcs, n_events, drives, batch,
                                          panel, width, acc);
  }
}

void read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                   const ReadEpilogue& ep, int32_t* counts,
                   int64_t count_stride, double* y_out) {
  if (simd::use_avx512()) {
    kernels::avx512_read_epilogue(acc, n, acc_stride, ep, counts,
                                  count_stride, y_out);
  } else if (simd::use_avx2_fma()) {
    kernels::avx2_read_epilogue(acc, n, acc_stride, ep, counts, count_stride,
                                y_out);
  } else {
    kernels::scalar_read_epilogue(acc, n, acc_stride, ep, counts,
                                  count_stride, y_out);
  }
}

ConvReadPlan make_conv_read_plan(int64_t in_c, int64_t in_h, int64_t in_w,
                                 int64_t kernel, int64_t stride, int64_t pad) {
  ConvReadPlan plan;
  plan.in_c = in_c;
  plan.in_h = in_h;
  plan.in_w = in_w;
  plan.pad = pad;
  plan.plane_h = in_h + 2 * pad;
  plan.plane_w = in_w + 2 * pad;
  const int64_t out_h = conv_out_extent(in_h, kernel, stride, pad);
  const int64_t out_w = conv_out_extent(in_w, kernel, stride, pad);
  plan.positions = out_h * out_w;
  for (int64_t ic = 0; ic < in_c; ++ic) {
    for (int64_t ky = 0; ky < kernel; ++ky) {
      for (int64_t kx = 0; kx < kernel; ++kx) {
        plan.taps.push_back(static_cast<int32_t>(
            (ic * plan.plane_h + ky) * plan.plane_w + kx));
      }
    }
  }
  for (int64_t p0 = 0; p0 < plan.positions; p0 += kConvLanes) {
    ConvLaneGroup grp;
    grp.live = static_cast<int32_t>(std::min(kConvLanes, plan.positions - p0));
    for (int64_t j = 0; j < kConvLanes; ++j) {
      const int64_t pos = p0 + std::min<int64_t>(j, grp.live - 1);
      grp.origin[j] = static_cast<int32_t>(
          (pos / out_w) * stride * plan.plane_w + (pos % out_w) * stride);
    }
    // The longest contiguous prefix, then whether the rest is one more run.
    int32_t split = 1;
    while (split < grp.live && grp.origin[split] == grp.origin[0] + split) {
      ++split;
    }
    bool two_runs = true;
    for (int32_t j = split + 1; j < grp.live; ++j) {
      two_runs = two_runs && grp.origin[j] == grp.origin[split] + (j - split);
    }
    grp.split = two_runs ? split : 0;
    plan.groups.push_back(grp);
  }
  return plan;
}

void fill_conv_plane(const ConvReadPlan& plan, const int32_t* input,
                     double* plane) {
  const int64_t pad = plan.pad;
  const int64_t pw = plan.plane_w;
  for (int64_t c = 0; c < plan.in_c; ++c) {
    double* ch = plane + c * plan.plane_h * pw;
    std::fill(ch, ch + pad * pw, 0.0);
    for (int64_t y = 0; y < plan.in_h; ++y) {
      double* row = ch + (y + pad) * pw;
      const int32_t* in = input + (c * plan.in_h + y) * plan.in_w;
      std::fill(row, row + pad, 0.0);
      for (int64_t x = 0; x < plan.in_w; ++x) {
        row[pad + x] = static_cast<double>(in[x]);
      }
      std::fill(row + pad + plan.in_w, row + pw, 0.0);
    }
    std::fill(ch + (plan.in_h + pad) * pw, ch + plan.plane_h * pw, 0.0);
  }
}

void conv_read(const ConvReadPlan& plan, const double* plane,
               const double* panel, const ReadEpilogue& ep, int64_t g0,
               int64_t g1, int32_t* counts, double* y_out) {
  if (simd::use_avx512()) {
    kernels::avx512_conv_read(plan, plane, panel, ep, g0, g1, counts, y_out);
  } else if (simd::use_avx2_fma()) {
    kernels::avx2_conv_read(plan, plane, panel, ep, g0, g1, counts, y_out);
  } else {
    kernels::scalar_conv_read(plan, plane, panel, ep, g0, g1, counts, y_out);
  }
}

}  // namespace qsnc::nn
