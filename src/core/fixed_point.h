// Fixed-point / fixed-integer number formats of the paper.
//
// Two representations appear throughout:
//  * M-bit fixed **integer** inter-layer signals: plain non-negative
//    integers 0..2^M-1, identical range in every layer. These are exactly
//    the spike counts an SNC transmits in one rate-coding window.
//  * N-bit fixed-**point** weights on the linear grid  k * s / 2^N  for
//    integer k in [-2^{N-1}, 2^{N-1}] and a network-wide scale s (Eq 6).
#pragma once

#include <cstdint>

#include "nn/signal.h"

namespace qsnc::core {

/// Maximum integer value representable by an M-bit unsigned signal.
constexpr int64_t signal_max(int bits) { return (int64_t{1} << bits) - 1; }

/// Eq 3's range threshold 2^{M-1} — the value above which the Neuron
/// Convergence regularizer applies its strong range penalty.
constexpr float signal_range_threshold(int bits) {
  return static_cast<float>(int64_t{1} << (bits - 1));
}

/// Quantizes inter-layer signals to M-bit fixed integers: round to the
/// nearest integer, clamp to [0, 2^M - 1]. Signals are post-ReLU, hence
/// non-negative. Attach to a network via Network::set_signal_quantizer.
class IntegerSignalQuantizer final : public nn::SignalQuantizer {
 public:
  explicit IntegerSignalQuantizer(int bits);

  float apply(float o) const override;
  bool pass_through(float o) const override;

  int bits() const { return bits_; }
  float max_value() const { return max_value_; }

 private:
  int bits_;
  float max_value_;
};

/// ReLU followed by IntegerSignalQuantizer::apply, returned as the integer
/// signal: `float(relu_quantize_signal(o, q.max_value()))` has the same
/// bits as `q.apply(o > 0 ? o : 0)` for every o, NaN included (+0.0,
/// never -0.0, for anything that rounds to zero). `max_value` is an
/// integer-valued float below 2^23. Rounding is std::round's
/// half-away-from-zero, done with one truncation and an exact compare
/// (`v - trunc(v)` is exact for 0 <= v < 2^23) so the loop around it
/// needs no libcall and no floor(v + 0.5), which would round
/// 0.49999997f up. Always inlined, so no TU emits an out-of-line copy:
/// core/int_epilogue_avx2.cpp calls it from code built with -mavx2, and a
/// weak AVX2 copy could otherwise be the one the linker keeps for every
/// caller.
[[gnu::always_inline]] inline int32_t relu_quantize_signal(float o,
                                                          float max_value) {
  float v = o > 0.0f ? o : 0.0f;
  v = v < max_value ? v : max_value;
  const int32_t t = static_cast<int32_t>(v);
  return t + (v - static_cast<float>(t) >= 0.5f ? 1 : 0);
}

/// Rounds a float to the nearest weight-grid level k*s/2^N,
/// k in [-2^{N-1}, 2^{N-1}], returning the quantized value.
float quantize_weight_to_grid(float w, int bits, float scale);

/// Integer grid index k of the nearest level (clamped to the grid).
int64_t weight_grid_index(float w, int bits, float scale);

/// Number of distinct levels on the N-bit weight grid: 2^N + 1
/// ({0, ±1, ..., ±2^{N-1}} scaled).
constexpr int64_t weight_grid_levels(int bits) {
  return (int64_t{1} << bits) + 1;
}

/// Quantizes an input pixel (already scaled to signal units) exactly like a
/// hidden-layer signal; the SNC input encoder performs this when converting
/// analog pixel intensities to spike counts.
float quantize_input_signal(float x, int bits);

/// Rounds to the nearest integer with ties going up (the SNC counter
/// convention: a column sum of exactly x.5 level units digitizes to x+1,
/// matching std::round for positive values but not for negative halves,
/// where std::round goes away from zero).
int64_t round_half_up(double v);

}  // namespace qsnc::core
