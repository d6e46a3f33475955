// Sequential network container with signal-hook plumbing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/layers/relu.h"
#include "nn/signal.h"

namespace qsnc::nn {

class Network {
 public:
  Network() = default;

  // Networks own their layers; moving is fine, copying is not.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Appends a layer and returns a typed reference to it for convenience:
  ///   auto& conv = net.emplace<Conv2d>(1, 6, 5, 1, 2, rng);
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  size_t size() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_.at(i); }
  const Layer& layer(size_t i) const { return *layers_.at(i); }

  /// Full forward pass over a batch.
  Tensor forward(const Tensor& input, bool train = false);

  /// Full backward pass; call after forward(..., train=true). Returns the
  /// gradient with respect to the network input.
  Tensor backward(const Tensor& grad_logits);

  /// All trainable parameters, including those nested in composite layers.
  std::vector<Param*> params();

  /// Total number of trainable scalar weights.
  int64_t num_weights();

  void zero_grad();

  /// All signal-boundary (ReLU) layers at any nesting depth, in
  /// forward order.
  std::vector<ReLU*> signal_layers();

  /// Attach `reg` to every signal layer except the excluded trailing count
  /// (the paper does not quantize the final classifier output). nullptr
  /// detaches.
  void set_signal_regularizer(const SignalRegularizer* reg);

  /// Attach `q` to every signal layer. nullptr detaches.
  void set_signal_quantizer(const SignalQuantizer* q);

  /// Sum of lambda-weighted regularizer penalties from the last training
  /// forward pass (the sum_i lambda_i Rg(O_i) term of Eq 2).
  float signal_penalty();

  /// Per-sample argmax class prediction for a batch of inputs.
  std::vector<int64_t> predict(const Tensor& batch);

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace qsnc::nn
