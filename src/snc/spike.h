// Rate coding and the integrate-and-fire conversion chain.
//
// In the paper's SNC an M-bit signal value n in [0, 2^M - 1] is carried as
// n spikes inside a time window of T = 2^M - 1 slots. Crossbar column
// currents are converted back to spikes by integrate-and-fire circuits
// (IFCs); digital counters tally the spikes to reconstruct the M-bit value
// for the next layer.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/rng.h"

namespace qsnc::snc {

/// Spike window length for an M-bit signal.
constexpr int64_t window_slots(int bits) { return (int64_t{1} << bits) - 1; }

/// The input encoder: pixel -> signal units -> M-bit spike count, i.e.
/// std::llround(pixel * input_scale) clamped to [0, window], with the
/// product rounded to float first. The rounding is an exact truncation:
/// for a float s below 2^52, double(s) + 0.5 is exact, so truncating it
/// rounds half away from zero as llround does on s >= 0 (s < 0 clamps to 0
/// either way); from 2^52 up every float is an even integer, so adding
/// 0.5 rounds back to s. As with llround on x86-64, whose out-of-range
/// result is LLONG_MIN, s >= 2^63, +-inf and NaN encode to 0. The clamp is
/// done in double and `window` must be below 2^31, so the count is an
/// int32 and the loop over an image vectorizes.
inline int32_t encode_pixel(float pixel, float input_scale, int64_t window) {
  const float scaled = pixel * input_scale;
  double v = static_cast<double>(scaled) + 0.5;
  v = v < 0x1p63 ? v : 0.0;  // NaN fails the compare too
  v = v > 0.0 ? v : 0.0;
  v = v < static_cast<double>(window) ? v : static_cast<double>(window);
  return static_cast<int32_t>(v);
}

/// Encodes an integer value into a deterministic spike train of
/// `window_slots(bits)` slots with evenly spread spikes (values are clamped
/// to [0, 2^M - 1]). Deterministic coding keeps the behavioural simulator
/// bit-exact with the quantized network; Bernoulli coding is available for
/// the stochastic-coding ablation.
std::vector<uint8_t> rate_encode(int64_t value, int bits);

/// Stochastic variant: each slot fires with probability value / T.
std::vector<uint8_t> rate_encode_stochastic(int64_t value, int bits,
                                            nn::Rng& rng);

/// Allocation-free encoders for the inference hot loop: write the train
/// into caller-owned storage of `window_slots(bits)` slots. The vector
/// variants above are thin wrappers. The stochastic form consumes exactly
/// `window_slots(bits)` RNG draws for every value — including zero — so a
/// caller that encodes only the rows it needs keeps the stream aligned
/// with one that encodes everything.
///
/// Every encoder throws std::invalid_argument for `bits` outside [1, 30]
/// (SpikeCounter's range), before it allocates or writes.
void rate_encode_into(int64_t value, int bits, uint8_t* train);
void rate_encode_stochastic_into(int64_t value, int bits, nn::Rng& rng,
                                 uint8_t* train);

/// Counts spikes back into an integer (the Counter block).
int64_t rate_decode(const std::vector<uint8_t>& spikes);

/// Integrate-and-fire circuit: accumulates charge each slot and emits a spike
/// each time the membrane crosses the firing threshold (subtractive reset).
class IntegrateFire {
 public:
  /// `threshold_charge` is the charge equivalent of one output spike.
  explicit IntegrateFire(double threshold_charge);

  /// Integrates one slot's current*dt worth of charge; returns the number
  /// of spikes emitted in this slot (can exceed 1 for large inputs).
  int64_t integrate(double charge);

  /// Remaining sub-threshold membrane charge.
  double membrane() const { return membrane_; }

  void reset() { membrane_ = 0.0; }

 private:
  double threshold_;
  double membrane_ = 0.0;
};

/// Saturating digital spike counter with an M-bit ceiling.
class SpikeCounter {
 public:
  explicit SpikeCounter(int bits);

  void count(int64_t spikes);
  int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  int64_t ceiling_;
  int64_t value_ = 0;
};

}  // namespace qsnc::snc
