// Minimal single-threaded GEMM kernels used by the convolution and dense
// layers. Not a BLAS replacement: the goal is a dependency-free, cache-aware
// matrix multiply fast enough to train the mini model zoo on one CPU core.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace qsnc::nn {

/// C[m x n] = A[m x k] * B[k x n]  (row-major, C overwritten).
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n);

/// C[m x n] += A[m x k] * B[k x n]  (row-major, accumulate into C).
void gemm_acc(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n);

/// C[m x n] += A^T[m x k] * B[k x n] where A is stored [k x m] row-major.
void gemm_at_b_acc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

/// C[m x n] += A[m x k] * B^T[k x n] where B is stored [n x k] row-major.
void gemm_a_bt_acc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

/// The SNC read's numeric model: a crossbar cell driven at v adds its
/// current v * g to its bit line's sum with one rounding, as the analog
/// column sum does — one fused multiply-add per cell. Every scalar read
/// loop (the kernels' scalar tier and the infer_reference oracle's arrays)
/// calls this; the SIMD tiers use the matching vfmadd instruction, so every
/// read agrees bit for bit. A zero drive leaves a sum unchanged (a sum that
/// starts at +0.0 never becomes -0.0, and fma(0, g, s) == s for finite g),
/// so a read may skip zero drives or not without changing a bit. Always
/// inlined: a weak out-of-line copy from an FMA-enabled TU could otherwise
/// be the one the linker keeps for generic code.
[[gnu::always_inline]] inline double crossbar_mac(double v, double g,
                                                  double acc) {
  return std::fma(v, g, acc);
}

/// Marks a scalar read loop in a generic x86-64 TU for a second copy built
/// with FMA, picked at load time on CPUs that have it (GCC function
/// multiversioning): there crossbar_mac is one vfmadd, elsewhere a libm
/// call (software on CPUs without FMA3). Both copies compute the same bits;
/// the TUs are built with -ffp-contract=off so the FMA copy fuses nothing
/// else. Not under ThreadSanitizer: the instrumented load-time resolver
/// would run before the sanitizer's runtime and crash.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define QSNC_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define QSNC_FMA_CLONES
#endif

/// Batched sparse row drive in double precision: the SNC read of dense
/// stages and spike slots. `drives` is image-minor ([slot x batch]);
/// event e drives panel row rows[e] with image b's value
/// drives[srcs[e] * batch + b]. For every image b and column c < width:
///   acc[b * width + c] = crossbar_mac over e ascending of
///       (drives[srcs[e] * batch + b], panel[rows[e] * width + c])
/// starting from +0.0 (acc is overwritten). The SIMD tiers — register
/// tiles of up to 8 images (AVX-512, 3 zmm column vectors) or 4 images
/// (AVX2, 3 ymm) that share each panel-row load across the tile's images —
/// keep every column sum its own fused chain in event order, so they are
/// bit-identical to the scalar loop. A zero drive leaves a sum unchanged,
/// so the result equals the sum over the nonzero drives alone.
void accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                           int64_t n_events, const double* drives,
                           int64_t batch, const double* panel, int64_t width,
                           double* acc);

/// Constants of one crossbar stage's read epilogue.
struct ReadEpilogue {
  int64_t cols = 0;             // logical columns (acc rows hold 2 * cols)
  double dg = 1.0;              // differential conductance of one level
  double step = 1.0;            // weight units per level
  const float* bias = nullptr;  // [cols]
  bool rectify = false;         // clamp counts to [0, ceiling]
  int64_t ceiling = 0;
};

/// The SNC collapsed read's epilogue over n accumulator rows, row i at
/// acc + i * acc_stride holding interleaved (plus, minus) column sums as
/// accumulate_rows_batch leaves them. For every row i and column c:
///   y = step * ((acc[2c] - acc[2c + 1]) / dg) + bias[c]
///   counts[c * count_stride + i] = floor(y + 0.5), clamped to
///       [0, ceiling] when rectify, else to the int32 range
/// — core::round_half_up operation for operation, saturated to int32. When
/// y_out is non-null, y_out[c] receives each row's y in turn (the last
/// row's remain). The SIMD tiers round with vroundpd / vrndscalepd and the
/// scalar path with std::floor, and all clamp in double before the one
/// conversion; every step is exact, so every dispatch agrees bit for bit.
void read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                   const ReadEpilogue& ep, int32_t* counts,
                   int64_t count_stride, double* y_out);

/// Output positions per lane group of nn::conv_read: one zmm of doubles
/// (the AVX2 tier reads a group as two ymm halves).
inline constexpr int64_t kConvLanes = 8;

/// kConvLanes consecutive output positions (in flat out_h * out_w order)
/// of one conv read.
struct ConvLaneGroup {
  /// Padded-plane offset of each lane's receptive-field origin; lanes past
  /// `live` repeat the last live lane's, so an unmasked gather stays in
  /// the plane.
  int32_t origin[kConvLanes] = {};
  /// Positions in the group: kConvLanes except in a stage's last group.
  int32_t live = 0;
  /// Lanes [0, split) read one contiguous run of the plane from
  /// origin[0], lanes [split, live) a second run from origin[split]
  /// (split == live: one run). 0 when the lanes form neither (strided
  /// stages, or groups that span more than two output rows): they gather.
  int32_t split = 0;
};

/// Geometry of one conv stage's read, built once per stage: the padded
/// input plane, each crossbar row's offset within a receptive field, and
/// the position lane groups.
struct ConvReadPlan {
  int64_t in_c = 0, in_h = 0, in_w = 0, pad = 0;
  int64_t plane_h = 0, plane_w = 0;  // in_h + 2 * pad, in_w + 2 * pad
  int64_t positions = 0;             // out_h * out_w
  /// taps[r]: padded-plane offset of crossbar row r = (ic, ky, kx) from a
  /// receptive field's origin.
  std::vector<int32_t> taps;
  std::vector<ConvLaneGroup> groups;

  int64_t rows() const { return static_cast<int64_t>(taps.size()); }
  /// Padded-plane offset of output position p's receptive-field origin:
  /// crossbar row r of position p reads plane[origin(p) + taps[r]].
  int32_t origin(int64_t p) const {
    return groups[static_cast<size_t>(p / kConvLanes)].origin[p % kConvLanes];
  }
  /// Doubles in one image's padded plane.
  int64_t plane_doubles() const { return in_c * plane_h * plane_w; }
};

/// The plan of a kernel x kernel convolution over [in_c, in_h, in_w] at
/// `stride` and `pad` (square, as nn::Conv2d).
ConvReadPlan make_conv_read_plan(int64_t in_c, int64_t in_h, int64_t in_w,
                                 int64_t kernel, int64_t stride, int64_t pad);

/// Writes one image's zero-padded input plane (plan.plane_doubles()
/// entries, every one written): input[(c * in_h + y) * in_w + x] lands at
/// plane[(c * plane_h + y + pad) * plane_w + x + pad], zeros elsewhere.
void fill_conv_plane(const ConvReadPlan& plan, const int32_t* input,
                     double* plane);

/// The collapsed ideal read of one conv stage for one image, lane groups
/// [g0, g1), with output positions in the SIMD lanes. For every position
/// p in those groups and every panel column k < 2 * ep.cols (the panel is
/// [rows x 2 * ep.cols], interleaved plus/minus, as for
/// accumulate_rows_batch):
///   s = +0.0; for r ascending: s = crossbar_mac(v_r, panel[r][k], s)
/// with v_r = plane[origin(p) + taps[r]], then nn::read_epilogue's
/// arithmetic turns each (plus, minus) pair into
/// counts[c * plan.positions + p]; y_out, when non-null, receives each
/// column's y at position plan.positions - 1 if that position is in the
/// range. A zero drive leaves a sum unchanged, so skipping one changes no
/// bit: the scalar loop skips each zero drive, the SIMD tiers each row
/// whose drives are zero in every lane, and the result equals the
/// oracle's zero-skipping read. Per group, the SIMD tiers hold one
/// accumulator per panel column (column blocks when the stage is wider
/// than the register file), load each row's drives as one or two
/// contiguous runs of the plane or gather them, and store each column's
/// counts with one masked store.
void conv_read(const ConvReadPlan& plan, const double* plane,
               const double* panel, const ReadEpilogue& ep, int64_t g0,
               int64_t g1, int32_t* counts, double* y_out);

}  // namespace qsnc::nn
