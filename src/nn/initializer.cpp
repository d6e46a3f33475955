#include "nn/initializer.h"

#include <cmath>
#include <stdexcept>

namespace qsnc::nn {

void he_normal(Tensor& w, int64_t fan_in, Rng& rng) {
  if (fan_in <= 0) throw std::invalid_argument("he_normal: fan_in <= 0");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal(0.0f, stddev);
}

}  // namespace qsnc::nn
