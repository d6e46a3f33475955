#include "core/qat_pipeline.h"

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/dynamic_fixed_point.h"
#include "core/fixed_point.h"
#include "core/metrics.h"
#include "data/batcher.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace qsnc::core {

namespace {

void scale_and_maybe_quantize_input(nn::Tensor& batch, float scale,
                                    int input_bits) {
  if (scale != 1.0f) batch *= scale;
  if (input_bits > 0) {
    for (int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] = quantize_input_signal(batch[i], input_bits);
    }
  }
}

// Input-encoder scale for a proposed-method arm targeting M-bit signals:
// the SNC input encoder maps pixel in [0, 1] onto the spike window, so the
// natural scale is 2^M - 1 — capped at the reference scale so wide windows
// (M >= 5) keep the training convention of the fp32 baseline.
float proposed_input_scale(const TrainConfig& tcfg, int bits) {
  return std::min(tcfg.input_scale,
                  static_cast<float>(signal_max(bits)));
}

}  // namespace

TrainResult train(nn::Network& net, const data::InMemoryDataset& train_set,
                  const TrainConfig& config, const nn::SignalRegularizer* reg,
                  int fake_quant_bits, int fake_quant_from_epoch) {
  TrainResult result;
  data::Batcher batcher(
      std::make_shared<data::InMemoryDataset>(train_set), config.batch_size,
      config.seed + 17);
  nn::Sgd opt(net.params(), {config.lr, config.momentum, config.weight_decay});

  std::unique_ptr<IntegerSignalQuantizer> fq;
  if (fake_quant_bits > 0) {
    fq = std::make_unique<IntegerSignalQuantizer>(fake_quant_bits);
  }
  if (reg != nullptr) net.set_signal_regularizer(reg);

  const int64_t steps = batcher.batches_per_epoch();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const bool quantizing = fq && epoch >= fake_quant_from_epoch;
    net.set_signal_quantizer(quantizing ? fq.get() : nullptr);

    double loss_acc = 0.0;
    double penalty_acc = 0.0;
    for (int64_t s = 0; s < steps; ++s) {
      data::Batch batch = batcher.next();
      scale_and_maybe_quantize_input(batch.images, config.input_scale,
                                     quantizing ? fake_quant_bits : 0);

      opt.zero_grad();
      const nn::Tensor logits = net.forward(batch.images, /*train=*/true);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits,
                                                            batch.labels);
      net.backward(loss.grad);
      opt.step();

      loss_acc += loss.loss;
      penalty_acc += net.signal_penalty();
    }
    result.history.push_back(
        {static_cast<float>(loss_acc / static_cast<double>(steps)),
         static_cast<float>(penalty_acc / static_cast<double>(steps))});
    if (config.verbose) {
      std::printf("  epoch %d: loss %.4f penalty %.4f\n", epoch,
                  result.history.back().loss, result.history.back().penalty);
    }
    opt.set_lr(opt.lr() * config.lr_decay);
  }

  net.set_signal_regularizer(nullptr);
  net.set_signal_quantizer(nullptr);
  return result;
}

TrainResult fine_tune_quantized(
    nn::Network& net, const data::InMemoryDataset& train_set,
    const TrainConfig& config, int signal_bits, const WeightClusterConfig& wc,
    const std::vector<WeightClusterResult>& scales) {
  TrainResult result;
  data::Batcher batcher(
      std::make_shared<data::InMemoryDataset>(train_set), config.batch_size,
      config.seed + 31);

  // Shadow copies hold the float master weights; the live network always
  // carries grid-snapped values during forward/backward.
  std::vector<nn::Param*> params = net.params();
  std::vector<nn::Tensor> shadow;
  std::vector<nn::Tensor> velocity;
  shadow.reserve(params.size());
  velocity.reserve(params.size());
  for (nn::Param* p : params) {
    shadow.push_back(p->value);
    velocity.emplace_back(p->value.shape());
  }

  // Frozen grid scale per synapse tensor, matching the iteration order of
  // apply_weight_clustering (rank >= 2 params in network order).
  std::vector<float> scale_of(params.size(), 0.0f);
  {
    size_t synapse_idx = 0;
    for (size_t i = 0; i < params.size(); ++i) {
      if (params[i]->value.rank() < 2) continue;
      const size_t s =
          wc.scope == ClusterScope::kPerNetwork ? 0 : synapse_idx;
      if (s >= scales.size()) {
        throw std::invalid_argument(
            "fine_tune_quantized: scale count does not match synapse count");
      }
      scale_of[i] = scales[s].scale;
      ++synapse_idx;
    }
  }

  auto snap_weights = [&]() {
    for (size_t i = 0; i < params.size(); ++i) {
      nn::Param& p = *params[i];
      if (p.value.rank() >= 2) {
        for (int64_t j = 0; j < p.value.numel(); ++j) {
          p.value[j] =
              quantize_weight_to_grid(shadow[i][j], wc.bits, scale_of[i]);
        }
      } else {
        p.value = shadow[i];
      }
    }
  };

  std::unique_ptr<IntegerSignalQuantizer> fq;
  if (signal_bits > 0) {
    fq = std::make_unique<IntegerSignalQuantizer>(signal_bits);
    net.set_signal_quantizer(fq.get());
  }

  float lr = config.lr;
  const int64_t steps = batcher.batches_per_epoch();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    double loss_acc = 0.0;
    for (int64_t s = 0; s < steps; ++s) {
      data::Batch batch = batcher.next();
      scale_and_maybe_quantize_input(batch.images, config.input_scale,
                                     signal_bits);

      snap_weights();
      net.zero_grad();
      const nn::Tensor logits = net.forward(batch.images, /*train=*/true);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits,
                                                            batch.labels);
      net.backward(loss.grad);
      loss_acc += loss.loss;

      // Weight-side STE: the gradient computed at the snapped point updates
      // the float shadow (with the same global norm clip as Sgd).
      double sq = 0.0;
      for (nn::Param* p : params) sq += p->grad.squared_norm();
      const float norm = static_cast<float>(std::sqrt(sq));
      const float clip = norm > 5.0f ? 5.0f / norm : 1.0f;
      for (size_t i = 0; i < params.size(); ++i) {
        nn::Param& p = *params[i];
        for (int64_t j = 0; j < p.value.numel(); ++j) {
          const float g =
              p.grad[j] * clip + config.weight_decay * shadow[i][j];
          velocity[i][j] = config.momentum * velocity[i][j] - lr * g;
          shadow[i][j] += velocity[i][j];
        }
      }
    }
    result.history.push_back(
        {static_cast<float>(loss_acc / static_cast<double>(steps)), 0.0f});
    lr *= config.lr_decay;
  }

  snap_weights();  // leave the network deployed on the grid
  net.set_signal_quantizer(nullptr);
  return result;
}

ExperimentResult run_signal_experiment(const ModelFactory& factory,
                                       const std::string& model_name,
                                       const data::InMemoryDataset& train_set,
                                       const data::InMemoryDataset& test_set,
                                       const std::vector<int>& bit_widths,
                                       const TrainConfig& tcfg,
                                       const NcOptions& nc) {
  ExperimentResult result;
  result.model = model_name;
  result.dataset = test_set.name();

  nn::Rng init_rng(tcfg.seed);
  nn::Network net = factory(init_rng);
  const nn::NetworkState init = nn::snapshot(net);

  // Ideal arm (plain training, fp32 eval). The same trained weights feed
  // every "w/o" row: traditional training followed by direct discretize.
  train(net, train_set, tcfg);
  result.ideal_acc = evaluate_accuracy(net, test_set, tcfg.input_scale);
  const nn::NetworkState plain = nn::snapshot(net);

  for (int bits : bit_widths) {
    BitRow row;
    row.bits = bits;

    // w/o: direct quantization of the plain network.
    nn::restore(net, plain);
    IntegerSignalQuantizer q(bits);
    net.set_signal_quantizer(&q);
    row.acc_without =
        evaluate_accuracy(net, test_set, tcfg.input_scale, bits);
    net.set_signal_quantizer(nullptr);

    // w/: Neuron Convergence training from the identical init, with a
    // trailing fake-quantization phase, then the same deployment quantizer.
    // The proposed arm trains with its input encoder matched to the M-bit
    // window (part of the method: the network is designed for the target
    // hardware), so narrow windows are not half-wasted on clipped pixels.
    nn::restore(net, init);
    TrainConfig nc_cfg = tcfg;
    nc_cfg.input_scale = proposed_input_scale(tcfg, bits);
    NeuronConvergenceRegularizer reg(bits, nc.lambda, nc.alpha);
    const int fq_from = std::max(0, tcfg.epochs - nc.qat_epochs);
    train(net, train_set, nc_cfg, &reg, nc.qat_epochs > 0 ? bits : 0,
          fq_from);
    net.set_signal_quantizer(&q);
    row.acc_with =
        evaluate_accuracy(net, test_set, nc_cfg.input_scale, bits);
    net.set_signal_quantizer(nullptr);

    result.rows.push_back(row);
  }
  return result;
}

ExperimentResult run_weight_experiment(const ModelFactory& factory,
                                       const std::string& model_name,
                                       const data::InMemoryDataset& train_set,
                                       const data::InMemoryDataset& test_set,
                                       const std::vector<int>& bit_widths,
                                       const TrainConfig& tcfg) {
  ExperimentResult result;
  result.model = model_name;
  result.dataset = test_set.name();

  nn::Rng init_rng(tcfg.seed);
  nn::Network net = factory(init_rng);

  train(net, train_set, tcfg);
  result.ideal_acc = evaluate_accuracy(net, test_set, tcfg.input_scale);
  const nn::NetworkState plain = nn::snapshot(net);

  for (int bits : bit_widths) {
    BitRow row;
    row.bits = bits;

    WeightClusterConfig wc;
    wc.bits = bits;

    // w/o: one-shot naive grid quantization.
    nn::restore(net, plain);
    wc.optimize_scale = false;
    apply_weight_clustering(net, wc);
    row.acc_without = evaluate_accuracy(net, test_set, tcfg.input_scale);

    // w/: optimized clustering (Eq 6) from the same trained weights, plus a
    // short grid-frozen fine-tune (the "train a cluster" step).
    nn::restore(net, plain);
    wc.optimize_scale = true;
    const std::vector<WeightClusterResult> wcr =
        apply_weight_clustering(net, wc);
    TrainConfig ft = tcfg;
    ft.epochs = 2;
    ft.lr = tcfg.lr * 0.1f;
    fine_tune_quantized(net, train_set, ft, /*signal_bits=*/0, wc, wcr);
    row.acc_with = evaluate_accuracy(net, test_set, tcfg.input_scale);

    result.rows.push_back(row);
  }
  return result;
}

ExperimentResult run_combined_experiment(
    const ModelFactory& factory, const std::string& model_name,
    const data::InMemoryDataset& train_set,
    const data::InMemoryDataset& test_set, const std::vector<int>& bit_widths,
    const TrainConfig& tcfg, const NcOptions& nc, int fine_tune_epochs) {
  ExperimentResult result;
  result.model = model_name;
  result.dataset = test_set.name();

  nn::Rng init_rng(tcfg.seed);
  nn::Network net = factory(init_rng);
  const nn::NetworkState init = nn::snapshot(net);

  train(net, train_set, tcfg);
  result.ideal_acc = evaluate_accuracy(net, test_set, tcfg.input_scale);
  const nn::NetworkState plain = nn::snapshot(net);

  // 8-bit dynamic fixed point baseline [23] from the same plain weights.
  {
    nn::restore(net, plain);
    DfpConfig dfp;
    dfp.input_scale = tcfg.input_scale;
    auto quantizers = apply_dynamic_fixed_point(net, train_set, dfp);
    result.dfp8_acc = evaluate_accuracy(net, test_set, tcfg.input_scale);
    net.set_signal_quantizer(nullptr);
  }

  for (int bits : bit_widths) {
    BitRow row;
    row.bits = bits;

    WeightClusterConfig wc;
    wc.bits = bits;

    // w/o: plain training, naive weight grid, direct signal rounding.
    nn::restore(net, plain);
    wc.optimize_scale = false;
    apply_weight_clustering(net, wc);
    IntegerSignalQuantizer q(bits);
    net.set_signal_quantizer(&q);
    row.acc_without =
        evaluate_accuracy(net, test_set, tcfg.input_scale, bits);
    net.set_signal_quantizer(nullptr);

    // w/: NC training, optimized clustering, short quantized fine-tune —
    // all with the input encoder matched to the M-bit window (see
    // run_signal_experiment).
    nn::restore(net, init);
    TrainConfig nc_cfg = tcfg;
    nc_cfg.input_scale = proposed_input_scale(tcfg, bits);
    NeuronConvergenceRegularizer reg(bits, nc.lambda, nc.alpha);
    const int fq_from = std::max(0, tcfg.epochs - nc.qat_epochs);
    train(net, train_set, nc_cfg, &reg, nc.qat_epochs > 0 ? bits : 0,
          fq_from);

    wc.optimize_scale = true;
    const std::vector<WeightClusterResult> wcr =
        apply_weight_clustering(net, wc);
    if (fine_tune_epochs > 0) {
      TrainConfig ft = nc_cfg;
      ft.epochs = fine_tune_epochs;
      ft.lr = tcfg.lr * 0.1f;
      fine_tune_quantized(net, train_set, ft, bits, wc, wcr);
    }
    net.set_signal_quantizer(&q);
    row.acc_with =
        evaluate_accuracy(net, test_set, nc_cfg.input_scale, bits);
    net.set_signal_quantizer(nullptr);

    result.rows.push_back(row);
  }
  return result;
}

}  // namespace qsnc::core
