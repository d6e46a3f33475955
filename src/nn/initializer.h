// Weight initialization schemes.
#pragma once

#include <cstdint>

#include "nn/rng.h"
#include "nn/tensor.h"

namespace qsnc::nn {

/// He/Kaiming-normal init: N(0, sqrt(2/fan_in)). The default for all conv
/// and dense layers (every hidden activation in the model zoo is ReLU).
void he_normal(Tensor& w, int64_t fan_in, Rng& rng);

}  // namespace qsnc::nn
