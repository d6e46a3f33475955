// The one max-pool window walk of the inference engines: the integer
// engine (core::IntQuantEngine) pools int16 signals and floats with it,
// the SNC system (snc::SncSystem) its int64 spike counts.
//
// Every window starts at `floor` and visits its taps in row-major order,
// keeping `best = v > best ? v : best`. That is MaxPool2d::forward's
// `v > best` comparison, so NaN taps are skipped and the first of equal
// values wins (+0.0 before -0.0 stays +0.0, and the reverse stays -0.0).
// The select has no data-dependent branch. In the 2x2/stride-2 path
// (lenet's pools) the tap offsets are fixed and GCC vectorizes it to
// pmaxsw / maxps, whose operand order gives the same NaN and signed-zero
// result; the generic walk's runtime offsets stay mostly scalar. Against
// the generic walk alone the 2x2 path cuts the integer engine's lenet
// batch by about a quarter (CHANGES.md has the runs). Windows never cross
// the plane edge: pool extents are conv_out_extent with no padding, so
// MaxPool2d's edge checks are dropped.
#pragma once

#include <cstdint>

namespace qsnc::nn {

template <typename T>
inline T max_tap(T v, T best) {
  return v > best ? v : best;
}

/// Max-pools `planes` [in_h x in_w] planes into [out_h x out_w] planes.
/// out_h = (in_h - kernel) / stride + 1, and likewise out_w.
template <typename T>
void max_pool_planes(const T* in, int64_t planes, int64_t in_h, int64_t in_w,
                     int64_t kernel, int64_t stride, int64_t out_h,
                     int64_t out_w, T floor, T* out) {
  for (int64_t c = 0; c < planes; ++c) {
    const T* plane = in + c * in_h * in_w;
    if (kernel == 2 && stride == 2) {
      // Two input rows per output row; the four taps in the generic order.
      for (int64_t oy = 0; oy < out_h; ++oy) {
        const T* r0 = plane + 2 * oy * in_w;
        const T* r1 = r0 + in_w;
        for (int64_t ox = 0; ox < out_w; ++ox) {
          T best = max_tap(r0[2 * ox], floor);
          best = max_tap(r0[2 * ox + 1], best);
          best = max_tap(r1[2 * ox], best);
          out[ox] = max_tap(r1[2 * ox + 1], best);
        }
        out += out_w;
      }
      continue;
    }
    for (int64_t oy = 0; oy < out_h; ++oy) {
      for (int64_t ox = 0; ox < out_w; ++ox) {
        const T* window = plane + oy * stride * in_w + ox * stride;
        T best = floor;
        for (int64_t ky = 0; ky < kernel; ++ky) {
          for (int64_t kx = 0; kx < kernel; ++kx) {
            best = max_tap(window[ky * in_w + kx], best);
          }
        }
        out[ox] = best;
      }
      out += out_w;
    }
  }
}

}  // namespace qsnc::nn
