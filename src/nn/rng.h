// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in qsnc (weight init, data synthesis, spike
// encoding, device variation) draws from an explicitly seeded Rng so that
// test and benchmark runs are bit-reproducible across invocations.
#pragma once

#include <cstdint>
#include <random>

namespace qsnc::nn {

/// Seedable generator wrapping a fixed-algorithm engine (mt19937_64), so
/// sequences are identical across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform float in [lo, hi).
  float uniform(float lo = 0.0f, float hi = 1.0f);

  /// Standard normal scaled to the given mean/stddev.
  float normal(float mean = 0.0f, float stddev = 1.0f);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// SplitMix64-mixed seed for stream `stream_id` of a master seed.
  /// Parallel components (stochastic coding, per-replica fault seeds)
  /// derive one statistically independent stream per work unit instead of
  /// sharing an engine, so draws are race-free and reproducible regardless
  /// of thread count or execution order.
  static uint64_t stream_seed(uint64_t master_seed, uint64_t stream_id);

  /// Convenience: an Rng seeded with stream_seed(master_seed, stream_id).
  static Rng stream(uint64_t master_seed, uint64_t stream_id) {
    return Rng(stream_seed(master_seed, stream_id));
  }

  /// Underlying engine (for std::shuffle and distributions).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace qsnc::nn
