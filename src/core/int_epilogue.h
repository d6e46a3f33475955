// The integer engine's crossbar epilogue (core/int_quant_engine.*):
// y = float(acc) * step + bias per output element, stored as a float or,
// with the following ReLU folded in, as an M-bit int16 signal.
//
// Both conversions are exact (see int_quant_engine.h), so y is the float
// GEMM's value plus the bias, rounded once as the layer rounds it. Adding
// a +0.0 bias for a layer without one is exact too: float(acc) * step is
// never -0.0. The bias is one value per conv row or one per dense column.
//
// Every step is an elementwise IEEE operation, so the loop vectorizes at
// any width without changing a bit. It is compiled twice: for generic
// x86-64 in int_quant_engine.cpp, and in int_epilogue_avx2.cpp with
// -mavx2 -mno-fma -ffp-contract=off (no fused multiply-add, which would
// round once instead of twice). nn::simd::use_avx2() picks the copy.
#pragma once

#include <cstdint>

#include "core/fixed_point.h"

namespace qsnc::core {

// Internal linkage on purpose: each including TU keeps its own copy,
// built for its own instruction set. With inline (weak) linkage the
// linker would keep one copy for both callers. relu_quantize_signal,
// the one external function the loop calls, is always inlined, so the
// AVX2 TU defines no weak symbol but its avx2_epilogue instantiations.
namespace {

inline void epilogue_store(float y, float, float* out) { *out = y; }
inline void epilogue_store(float y, float peak, int16_t* out) {
  *out = static_cast<int16_t>(relu_quantize_signal(y, peak));
}

inline float bias_at(float bias, int64_t) { return bias; }
inline float bias_at(const float* bias, int64_t i) { return bias[i]; }

template <typename Bias, typename Out>
void epilogue_loop(const int32_t* acc, int64_t count, float step, Bias bias,
                   float peak, Out* out) {
  for (int64_t i = 0; i < count; ++i) {
    epilogue_store(static_cast<float>(acc[i]) * step + bias_at(bias, i),
                   peak, out + i);
  }
}

}  // namespace

/// epilogue_loop compiled with AVX2; call only when nn::simd::use_avx2().
/// Instantiated in int_epilogue_avx2.cpp for a float or `const float*`
/// bias and a float or int16_t output. `peak` is the signal ceiling
/// 2^M - 1, unused for float outputs.
template <typename Bias, typename Out>
void avx2_epilogue(const int32_t* acc, int64_t count, float step, Bias bias,
                   float peak, Out* out);

}  // namespace qsnc::core
