// Max pooling (square window) and global average pooling over NCHW
// activations.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace qsnc::nn {

class MaxPool2d : public Layer {
 public:
  /// Square window `kernel` with the given stride (no padding).
  MaxPool2d(int64_t kernel, int64_t stride);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_;
  int64_t stride_;
  Shape input_shape_;
  std::vector<int64_t> argmax_;  // flat input index per output element
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  GlobalAvgPool() = default;

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape input_shape_;
};

}  // namespace qsnc::nn
