#include "snc/spike.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace qsnc::snc {

namespace {

// The widths SpikeCounter accepts. The check sits inline in each encoder,
// so the compiler knows window_slots(bits) is in [1, 2^30 - 1] there.
inline bool bits_in_range(int bits) { return bits >= 1 && bits <= 30; }

[[noreturn]] void throw_bad_bits(const char* caller) {
  throw std::invalid_argument(std::string(caller) + ": bits out of range");
}

}  // namespace

void rate_encode_into(int64_t value, int bits, uint8_t* train) {
  if (!bits_in_range(bits)) throw_bad_bits("rate_encode");
  const int64_t slots = window_slots(bits);
  const int64_t n = std::clamp<int64_t>(value, 0, slots);
  std::fill(train, train + slots, uint8_t{0});
  if (n == 0) return;
  // Evenly spread spikes: slot k fires when floor((k+1)*n/T) increments.
  int64_t fired = 0;
  for (int64_t k = 0; k < slots; ++k) {
    const int64_t target = (k + 1) * n / slots;
    if (target > fired) {
      train[k] = 1;
      fired = target;
    }
  }
}

void rate_encode_stochastic_into(int64_t value, int bits, nn::Rng& rng,
                                 uint8_t* train) {
  if (!bits_in_range(bits)) throw_bad_bits("rate_encode_stochastic");
  const int64_t slots = window_slots(bits);
  const int64_t n = std::clamp<int64_t>(value, 0, slots);
  const double p = static_cast<double>(n) / static_cast<double>(slots);
  for (int64_t k = 0; k < slots; ++k) train[k] = rng.bernoulli(p) ? 1 : 0;
}

std::vector<uint8_t> rate_encode(int64_t value, int bits) {
  if (!bits_in_range(bits)) throw_bad_bits("rate_encode");
  std::vector<uint8_t> train(static_cast<size_t>(window_slots(bits)));
  rate_encode_into(value, bits, train.data());
  return train;
}

std::vector<uint8_t> rate_encode_stochastic(int64_t value, int bits,
                                            nn::Rng& rng) {
  if (!bits_in_range(bits)) throw_bad_bits("rate_encode_stochastic");
  std::vector<uint8_t> train(static_cast<size_t>(window_slots(bits)));
  rate_encode_stochastic_into(value, bits, rng, train.data());
  return train;
}

int64_t rate_decode(const std::vector<uint8_t>& spikes) {
  int64_t n = 0;
  for (uint8_t s : spikes) n += s != 0 ? 1 : 0;
  return n;
}

IntegrateFire::IntegrateFire(double threshold_charge)
    : threshold_(threshold_charge) {
  if (threshold_charge <= 0.0) {
    throw std::invalid_argument("IntegrateFire: threshold must be positive");
  }
}

int64_t IntegrateFire::integrate(double charge) {
  membrane_ += charge;
  int64_t spikes = 0;
  while (membrane_ >= threshold_) {
    membrane_ -= threshold_;
    ++spikes;
  }
  return spikes;
}

SpikeCounter::SpikeCounter(int bits)
    : ceiling_((int64_t{1} << bits) - 1) {
  if (!bits_in_range(bits)) throw_bad_bits("SpikeCounter");
}

void SpikeCounter::count(int64_t spikes) {
  value_ = std::min(value_ + spikes, ceiling_);
}

}  // namespace qsnc::snc
