#include "nn/network.h"

namespace qsnc::nn {

Tensor Network::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) {
    x = layer->forward(x, train);
  }
  return x;
}

Tensor Network::backward(const Tensor& grad_logits) {
  Tensor g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Network::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    visit_layers(layer.get(), [&out](Layer* l) {
      // Composite layers aggregate their children's params; collecting at
      // leaves only avoids duplicates.
      if (l->children().empty()) {
        for (Param* p : l->params()) out.push_back(p);
      }
    });
  }
  return out;
}

int64_t Network::num_weights() {
  int64_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

void Network::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::vector<ReLU*> Network::signal_layers() {
  std::vector<ReLU*> out;
  for (auto& layer : layers_) {
    visit_layers(layer.get(), [&out](Layer* l) {
      if (auto* r = dynamic_cast<ReLU*>(l)) out.push_back(r);
    });
  }
  return out;
}

void Network::set_signal_regularizer(const SignalRegularizer* reg) {
  for (ReLU* r : signal_layers()) r->set_regularizer(reg);
}

void Network::set_signal_quantizer(const SignalQuantizer* q) {
  for (ReLU* r : signal_layers()) r->set_quantizer(q);
}

float Network::signal_penalty() {
  float acc = 0.0f;
  for (ReLU* r : signal_layers()) acc += r->last_penalty();
  return acc;
}

std::vector<int64_t> Network::predict(const Tensor& batch) {
  Tensor logits = forward(batch, /*train=*/false);
  const int64_t n = logits.dim(0);
  const int64_t k = logits.dim(1);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    int64_t best = 0;
    for (int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    labels[static_cast<size_t>(i)] = best;
  }
  return labels;
}

}  // namespace qsnc::nn
