// Internal interface between the GEMM entry points (gemm.cpp / igemm.cpp)
// and the SIMD micro-kernel translation units (gemm_avx2.cpp /
// igemm_avx2.cpp, compiled with -mavx2 -mno-fma; snc_read_avx2.cpp,
// compiled with -mavx2 -mfma; gemm_avx512.cpp, compiled with -mavx512f
// -mavx512vl -mavx512dq -mfma), the only files built for a wider ISA.
//
// Bit-exactness contract (fp32): every kernel here must reproduce the
// scalar reference loops in gemm.cpp bit-for-bit —
//   * separate multiply and add, never FMA (the scalar TUs are compiled
//     without -mfma, so contraction would change the rounding);
//   * per output element (i, j) the k terms accumulate in ascending order,
//     with the same per-variant k-block accumulator structure;
//   * the zero-skip test (`a == 0.0f` skips a k term) matches per variant:
//     present in gemm/gemm_acc and gemm_at_b_acc, absent in gemm_a_bt_acc.
// Vectorizing across j keeps each j lane's term sequence identical to the
// scalar loop, so the only change is how many (i, j) cells advance per
// instruction. Integer kernels are exact, so any schedule is bit-equal.
#pragma once

#include <cstdint>

#include "nn/gemm.h"

namespace qsnc::nn::kernels {

// Cache-block extents shared by the scalar reference and the SIMD path.
// gemm_a_bt_acc's per-(i, j) accumulator resets at kBlockK boundaries, so
// the constant is part of the numeric contract, not just a tuning knob.
inline constexpr int64_t kBlockM = 64;
inline constexpr int64_t kBlockK = 128;
inline constexpr int64_t kBlockN = 256;

// Register tile of the fp32 micro-kernels: kMR C rows by kNR C columns
// (two 8-float vectors) held in ymm registers.
inline constexpr int64_t kMR = 4;
inline constexpr int64_t kNR = 16;

/// Floats in a packed B panel for a k-deep, n-wide operand: kNR-wide column
/// tiles (the last zero-padded), each storing k consecutive rows of kNR
/// lanes. Both pack functions below emit this layout.
int64_t gemm_panel_floats(int64_t k, int64_t n);

/// Packs row-major B[k x n] into tile-major layout:
///   panel[(j / kNR) * k * kNR + kk * kNR + (j % kNR)] = b[kk * n + j]
/// Padded lanes are zero. `panel` must be 64-byte aligned.
void pack_b_panel(const float* b, int64_t k, int64_t n, float* panel);

/// Same layout from a transposed operand B stored [n x k] (gemm_a_bt_acc):
///   panel[(j / kNR) * k * kNR + kk * kNR + (j % kNR)] = b[j * k + kk].
void pack_bt_panel(const float* b, int64_t k, int64_t n, float* panel);

/// Rows [i0, i1) of C[. x n] += A[. x k] * B[k x n] (A row-major, B from
/// pack_b_panel), bit-identical to gemm_acc_rows in gemm.cpp.
void avx2_gemm_acc_rows(const float* a, const float* b_panel, float* c,
                        int64_t k, int64_t n, int64_t i0, int64_t i1);

/// Rows [i0, i1) of C[m x n] += A^T * B with A stored [k x m] and B from
/// pack_b_panel, bit-identical to the wide-M path of gemm_at_b_acc (also
/// reused for one split-k chunk by shifting a/b to the chunk's k range).
void avx2_gemm_at_b_acc_rows(const float* a, const float* b_panel, float* c,
                             int64_t m, int64_t k, int64_t n, int64_t i0,
                             int64_t i1);

/// Rows [i0, i1) of C[. x n] += A * B^T with B stored [n x k], reading B
/// from the pack_bt_panel layout; bit-identical to the gemm_a_bt_acc
/// reference (fresh accumulator per kBlockK block, no zero-skip).
void avx2_gemm_a_bt_acc_rows(const float* a, const float* bt_panel, float* c,
                             int64_t k, int64_t n, int64_t i0, int64_t i1);

// ---- SNC collapsed read: conv lanes read, batched fp64 row drive, read
// epilogue ----
//
// nn::conv_read, nn::accumulate_rows_batch and nn::read_epilogue dispatch
// to one of three tiers below. Every term of every read is one fused
// multiply-add (nn::crossbar_mac: std::fma in the scalar loops, vfmadd in
// the SIMD tiers) in the same per-sum order, so all tiers are
// bit-identical to the scalar loops; tests call each compiled tier
// directly.

/// The scalar reference of nn::accumulate_rows_batch: per image, ascending
/// events from +0.0, one crossbar_mac per term.
void scalar_accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                                  int64_t n_events, const double* drives,
                                  int64_t batch, const double* panel,
                                  int64_t width, double* acc);

/// The clamp range of nn::read_epilogue's rounded counts, in double:
/// [0, ceiling] on rectified stages, else the int32 range. Always inlined,
/// so no TU emits an out-of-line copy: gemm_avx2.cpp and gemm_avx512.cpp
/// call them from code built with -mavx2 / -mavx512f, and a weak copy from
/// either could otherwise be the one the linker keeps for the scalar tier.
[[gnu::always_inline]] inline double count_lo(const ReadEpilogue& ep) {
  return ep.rectify ? 0.0 : -0x1p31;
}
[[gnu::always_inline]] inline double count_hi(const ReadEpilogue& ep) {
  return ep.rectify ? static_cast<double>(ep.ceiling) : 0x1p31 - 1.0;
}

/// The scalar reference of nn::read_epilogue (std::floor rounding).
void scalar_read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                          const ReadEpilogue& ep, int32_t* counts,
                          int64_t count_stride, double* y_out);

/// The scalar reference of nn::conv_read: per position and column, rows
/// ascending from +0.0, one crossbar_mac per nonzero drive, then
/// scalar_read_epilogue's arithmetic.
void scalar_conv_read(const ConvReadPlan& plan, const double* plane,
                      const double* panel, const ReadEpilogue& ep, int64_t g0,
                      int64_t g1, int32_t* counts, double* y_out);

/// AVX2 nn::conv_read (CPUs with FMA3 and without AVX-512): each lane
/// group is read as two halves of 4 positions, one ymm accumulator per
/// panel column, in column blocks of up to kConvPairs2 (plus, minus) pairs.
inline constexpr int64_t kConvPairs2 = 6;
void avx2_conv_read(const ConvReadPlan& plan, const double* plane,
                    const double* panel, const ReadEpilogue& ep, int64_t g0,
                    int64_t g1, int32_t* counts, double* y_out);

/// AVX-512 nn::conv_read: 8 positions per zmm, one accumulator per (lane
/// group, panel column). Stages of up to kConvPairs512 / 2 (plus, minus)
/// pairs read two lane groups at a time, each panel entry broadcast once
/// per row for both; wider ones read one group at a time in column blocks
/// of up to kConvPairs512 pairs.
inline constexpr int64_t kConvPairs512 = 14;
void avx512_conv_read(const ConvReadPlan& plan, const double* plane,
                      const double* panel, const ReadEpilogue& ep, int64_t g0,
                      int64_t g1, int32_t* counts, double* y_out);

/// Column blocks of a conv read over `pairs` (plus, minus) column pairs,
/// at most `max_pairs` each: as few blocks as fit, as even as possible.
/// Returns the pairs per block; the last block takes the remainder.
inline int64_t conv_block_pairs(int64_t pairs, int64_t max_pairs) {
  const int64_t blocks = (pairs + max_pairs - 1) / max_pairs;
  return (pairs + blocks - 1) / blocks;
}

/// AVX2 row drive (CPUs with FMA3 and without AVX-512). Images go in
/// tiles of up to 4; a tile of k images holds k x (kEventTileVecs / k) ymm
/// accumulators — 4 x 3, 3 x 4, 2 x 6 or 1 x 12 — in registers across all
/// events, so each panel-row vector is loaded once per tile and every
/// column sum is its own fused chain. A column block whose width is not a
/// multiple of 4 ends in a masked vector.
inline constexpr int64_t kEventTileVecs = 12;
inline constexpr int64_t kEventTileImages = 4;
void avx2_accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                                int64_t n_events, const double* drives,
                                int64_t batch, const double* panel,
                                int64_t width, double* acc);

/// AVX2 nn::read_epilogue, four columns per vector: hsub deinterleaves the
/// (plus, minus) pairs and vroundpd is the floor.
void avx2_read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                        const ReadEpilogue& ep, int32_t* counts,
                        int64_t count_stride, double* y_out);

/// AVX-512 row drive. Images go in tiles of up to 8; a full tile holds 8
/// images x up to 3 zmm column vectors (24 of the 32 registers), so one
/// panel-row load serves 8 images. Smaller tiles (a batch's last 1..7
/// images, and B=1) trade images for wider column blocks, up to 1 image x
/// 8 vectors (64 columns). The last vector of every column block is
/// loaded and stored under a __mmask8.
inline constexpr int64_t kEventTileImages512 = 8;
void avx512_accumulate_rows_batch(const int32_t* rows, const int32_t* srcs,
                                  int64_t n_events, const double* drives,
                                  int64_t batch, const double* panel,
                                  int64_t width, double* acc);

/// AVX-512 nn::read_epilogue, eight columns per vector (conv1's 6 columns
/// are one masked vector): vpermt2pd deinterleaves the (plus, minus)
/// pairs, vrndscalepd is the floor, vcvttpd2dq converts all lanes at once,
/// and each row's counts are scattered to their column planes.
void avx512_read_epilogue(const double* acc, int64_t n, int64_t acc_stride,
                          const ReadEpilogue& ep, int32_t* counts,
                          int64_t count_stride, double* y_out);

// ---- integer kernels (exact int32 accumulation; no rounding concerns) ----

// Integer register tile: kIMR C rows by kINR int32 accumulator lanes
// (two 8-lane vectors); B is packed in k-pairs for vpmaddwd.
inline constexpr int64_t kIMR = 4;
inline constexpr int64_t kINR = 16;

/// Size in int16 of the packed B panel for a [k x n] int16 operand.
int64_t ib_panel_int16s(int64_t k, int64_t n);

/// Packs int16 B [k x n] for vpmaddwd: kINR-wide column tiles, k rounded up
/// to pairs, each 32-bit lane holding (b[kk][j], b[kk+1][j]); zero-padded.
void pack_ib_panel(const int16_t* b, int64_t k, int64_t n, int16_t* panel);

/// Rows [i0, i1) of C[. x n] (int32) += A[. x k] (int16) * B, with B read
/// from the pack_ib_panel layout. Caller guarantees no int32 overflow:
/// max|A| * max|B| * k < 2^31.
void avx2_igemm_acc_rows(const int16_t* a, const int16_t* b_panel, int32_t* c,
                         int64_t k, int64_t n, int64_t i0, int64_t i1);

/// int16 slack avx2_pack_gather_panel may read on either side of `src`.
inline constexpr int64_t kGatherSlack = kINR;

/// Writes the pack_ib_panel layout of the implicit [k x n] operand
///   B[kk][j] = src[row_off[kk] + col_off[j]]
/// (an im2col matrix when src is a zero-padded image) without building B.
/// Column runs with consecutive offsets load as whole vectors, so a
/// stride-1 conv costs a few vector ops per 16 columns; other tiles fall
/// back to one load per element. `panel` must be 32-byte aligned and src
/// readable kGatherSlack int16 beyond every offset it is given.
void avx2_pack_gather_panel(const int16_t* src, const int32_t* row_off,
                            int64_t k, const int32_t* col_off, int64_t n,
                            int16_t* panel);

}  // namespace qsnc::nn::kernels
