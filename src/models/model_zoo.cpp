#include "models/model_zoo.h"

#include "nn/layers/batchnorm.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/flatten.h"
#include "nn/layers/pool.h"
#include "nn/layers/relu.h"
#include "nn/layers/residual.h"

namespace qsnc::models {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Dense;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::MaxPool2d;
using nn::Network;
using nn::ReLU;
using nn::ResidualBlock;
using nn::Rng;

namespace {

// Damps the classifier head so initial logits start near zero. With the
// signal-unit input convention (pixels scaled into the integer spike
// range) a He-initialized head produces O(30) logits, a saturated softmax,
// and seed-dependent early-training collapse.
Network with_small_head(Network net) {
  // The final rank-2 tensor in parameter order is the classifier weight.
  nn::Param* head = nullptr;
  for (nn::Param* p : net.params()) {
    if (p->value.rank() == 2) head = p;
  }
  if (head != nullptr) head->value *= 0.1f;
  return net;
}

}  // namespace

Network make_lenet(Rng& rng) {
  // 28x28x1 -> conv5x5(6) -> pool -> conv5x5(12) -> pool -> fc16 -> fc10.
  // ~6.9e3 weights, matching Table 1's 7e3.
  Network net;
  net.emplace<Conv2d>(1, 6, 5, 1, 2, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);
  net.emplace<Conv2d>(6, 12, 5, 1, 0, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);
  net.emplace<Flatten>();
  net.emplace<Dense>(12 * 5 * 5, 16, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(16, 10, rng);
  return with_small_head(std::move(net));
}

Network make_lenet_mini(Rng& rng) {
  // LeNet is already single-core friendly; the mini variant is identical.
  return make_lenet(rng);
}

Network make_alexnet(Rng& rng) {
  // 32x32x3, Table 1: 1 conv 5x5 + 4 conv 3x3 + 3 FC, ~3.4e5 weights.
  Network net;
  net.emplace<Conv2d>(3, 32, 5, 1, 2, rng);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(32, 32, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);  // 16x16
  net.emplace<Conv2d>(32, 64, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(64, 64, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);  // 8x8
  net.emplace<Conv2d>(64, 64, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);  // 4x4
  net.emplace<Flatten>();
  net.emplace<Dense>(64 * 4 * 4, 200, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(200, 64, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(64, 10, rng);
  return with_small_head(std::move(net));
}

Network make_alexnet_mini(Rng& rng) {
  // Same 5-conv / 3-FC structure, reduced widths for 1-core training.
  Network net;
  net.emplace<Conv2d>(3, 12, 5, 1, 2, rng);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(12, 12, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);
  net.emplace<Conv2d>(12, 16, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(16, 16, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);
  net.emplace<Conv2d>(16, 16, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2, 2);
  net.emplace<Flatten>();
  net.emplace<Dense>(16 * 4 * 4, 48, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(48, 24, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(24, 10, rng);
  return with_small_head(std::move(net));
}

namespace {

Network make_resnet_impl(Rng& rng, int64_t base_width) {
  // CIFAR ResNet-18 shape: conv1 + 4 stages x 2 basic blocks (16 convs)
  // = 17 conv layers + 1 FC, matching Table 1. At base_width 64 this is
  // ~1.1e7 weights (Table 1 lists 1.2e7).
  const int64_t w1 = base_width;
  const int64_t w2 = base_width * 2;
  const int64_t w3 = base_width * 4;
  const int64_t w4 = base_width * 8;

  Network net;
  net.emplace<Conv2d>(3, w1, 3, 1, 1, rng, /*use_bias=*/false);
  net.emplace<BatchNorm2d>(w1);
  net.emplace<ReLU>();
  net.emplace<ResidualBlock>(w1, w1, 1, rng);
  net.emplace<ResidualBlock>(w1, w1, 1, rng);
  net.emplace<ResidualBlock>(w1, w2, 2, rng);  // 16x16
  net.emplace<ResidualBlock>(w2, w2, 1, rng);
  net.emplace<ResidualBlock>(w2, w3, 2, rng);  // 8x8
  net.emplace<ResidualBlock>(w3, w3, 1, rng);
  net.emplace<ResidualBlock>(w3, w4, 2, rng);  // 4x4
  net.emplace<ResidualBlock>(w4, w4, 1, rng);
  net.emplace<GlobalAvgPool>();
  net.emplace<Dense>(w4, 10, rng);
  return with_small_head(std::move(net));
}

}  // namespace

Network make_resnet(Rng& rng) { return make_resnet_impl(rng, 64); }

Network make_resnet_mini(Rng& rng) { return make_resnet_impl(rng, 4); }

ModelSpec lenet_spec() {
  return {"Lenet", "MNIST", {1, 28, 28}, 2, 2};
}

ModelSpec alexnet_spec() {
  return {"Alexnet", "CIFAR10", {3, 32, 32}, 5, 3};
}

ModelSpec resnet_spec() {
  return {"Resnet", "CIFAR10", {3, 32, 32}, 17, 1};
}

}  // namespace qsnc::models
