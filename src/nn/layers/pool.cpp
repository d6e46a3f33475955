#include "nn/layers/pool.h"

#include <limits>
#include <stdexcept>

#include "nn/im2col.h"

namespace qsnc::nn {

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride) {
  if (kernel <= 0 || stride <= 0) {
    throw std::invalid_argument("MaxPool2d: invalid geometry");
  }
}

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  if (input.rank() != 4) {
    throw std::invalid_argument("MaxPool2d::forward: expected rank-4 input");
  }
  const int64_t batch = input.dim(0);
  const int64_t channels = input.dim(1);
  const int64_t in_h = input.dim(2);
  const int64_t in_w = input.dim(3);
  const int64_t out_h = conv_out_extent(in_h, kernel_, stride_, 0);
  const int64_t out_w = conv_out_extent(in_w, kernel_, stride_, 0);

  Tensor output({batch, channels, out_h, out_w});
  if (train) {
    input_shape_ = input.shape();
    argmax_.assign(static_cast<size_t>(output.numel()), -1);
  }

  int64_t out_idx = 0;
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* plane =
          input.data() + (n * channels + c) * in_h * in_w;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = -1;
          for (int64_t ky = 0; ky < kernel_; ++ky) {
            const int64_t iy = oy * stride_ + ky;
            if (iy >= in_h) break;
            for (int64_t kx = 0; kx < kernel_; ++kx) {
              const int64_t ix = ox * stride_ + kx;
              if (ix >= in_w) break;
              const float v = plane[iy * in_w + ix];
              if (v > best) {
                best = v;
                best_idx = (n * channels + c) * in_h * in_w + iy * in_w + ix;
              }
            }
          }
          output[out_idx] = best;
          if (train) argmax_[static_cast<size_t>(out_idx)] = best_idx;
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) {
    throw std::logic_error("MaxPool2d::backward before forward(train=true)");
  }
  Tensor grad_input(input_shape_);
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    const int64_t src = argmax_[static_cast<size_t>(i)];
    if (src >= 0) grad_input[src] += grad_output[i];
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool train) {
  if (input.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool: expected rank-4 input");
  }
  const int64_t batch = input.dim(0);
  const int64_t channels = input.dim(1);
  const int64_t hw = input.dim(2) * input.dim(3);
  const float inv = 1.0f / static_cast<float>(hw);
  if (train) input_shape_ = input.shape();

  Tensor output({batch, channels});
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + (n * channels + c) * hw;
      float acc = 0.0f;
      for (int64_t i = 0; i < hw; ++i) acc += plane[i];
      output.at(n, c) = acc * inv;
    }
  }
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) {
    throw std::logic_error("GlobalAvgPool::backward before forward");
  }
  const int64_t batch = input_shape_[0];
  const int64_t channels = input_shape_[1];
  const int64_t hw = input_shape_[2] * input_shape_[3];
  const float inv = 1.0f / static_cast<float>(hw);

  Tensor grad_input(input_shape_);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      const float g = grad_output.at(n, c) * inv;
      float* plane = grad_input.data() + (n * channels + c) * hw;
      for (int64_t i = 0; i < hw; ++i) plane[i] = g;
    }
  }
  return grad_input;
}

}  // namespace qsnc::nn
