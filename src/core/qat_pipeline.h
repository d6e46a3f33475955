// End-to-end experiment pipeline: training, quantization-aware training
// (Neuron Convergence + fake quantization), weight clustering, and the
// with/without comparisons behind the paper's Tables 2, 3, and 4.
//
// Input convention. The SNC operates on integer spike counts end to end, so
// the experiments feed networks inputs in *signal units*: pixel values in
// [0, 1] are scaled by TrainConfig::input_scale (default 16, i.e. the
// natural magnitude of a 4-bit spike window). At deployment the input
// encoder rounds and clamps those values to the M-bit window exactly like
// any hidden signal (core/fixed_point.h::quantize_input_signal). The ideal
// fp32 reference uses the same scale without quantization, which keeps the
// reference accuracy comparable across bit widths (a pure input rescale is
// absorbed by first-layer weights during training).
//
// Arms of each experiment (mirroring the paper's tables):
//   ideal : plain training, fp32 evaluation.
//   w/o   : the *same* plain-trained network, quantized directly.
//   w/    : the proposed method — Neuron Convergence regularized training
//           with a fake-quantization phase (signals), optimized Weight
//           Clustering (weights), or both (combined).
// All arms start from an identical parameter initialization (snapshot /
// restore) so differences are attributable to the method alone.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/neuron_convergence.h"
#include "core/weight_clustering.h"
#include "data/dataset.h"
#include "nn/network.h"
#include "nn/rng.h"

namespace qsnc::core {

/// Builds a fresh model instance from a seeded RNG.
using ModelFactory = std::function<nn::Network(nn::Rng&)>;

struct TrainConfig {
  int epochs = 15;
  int64_t batch_size = 32;
  float lr = 5e-4f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;  // the R(W) term of Eq 2
  float lr_decay = 0.9f;       // multiplicative per-epoch decay
  float input_scale = 16.0f;   // signal-units input convention (see above)
  uint64_t seed = 42;
  bool verbose = false;
};

/// Neuron Convergence arm options.
struct NcOptions {
  float lambda = 0.1f;  // loss weight of Rg (mean-normalized per layer)
  float alpha = 0.1f;   // Eq 3 alpha
  /// Epochs (out of TrainConfig::epochs) trained with fake quantization
  /// active on signals and inputs; the preceding epochs train with the
  /// regularizer only. 0 reproduces the paper's train-then-discretize
  /// reading literally (ablation bench covers both).
  int qat_epochs = 2;
};

struct EpochStats {
  float loss = 0.0f;     // mean data loss over the epoch
  float penalty = 0.0f;  // mean signal-regularizer penalty over the epoch
};

struct TrainResult {
  std::vector<EpochStats> history;
};

/// Trains `net` on `train_set`. Optional hooks:
///  * `reg` — signal regularizer attached for the whole run.
///  * `fake_quant_bits` > 0 — signals and inputs fake-quantized to that many
///    bits starting at epoch `fake_quant_from_epoch` (STE backward).
/// All hooks are detached before returning.
TrainResult train(nn::Network& net, const data::InMemoryDataset& train_set,
                  const TrainConfig& config,
                  const nn::SignalRegularizer* reg = nullptr,
                  int fake_quant_bits = 0, int fake_quant_from_epoch = 0);

/// Fine-tunes a network whose weights must stay on the N-bit cluster grid:
/// float shadow weights receive the updates, the forward/backward always
/// sees grid-snapped weights (weight-side STE), and signals are
/// fake-quantized to `signal_bits` (0 = leave signals in fp32). The grid
/// scales are frozen from a prior apply_weight_clustering run — pass its
/// result vector (one entry for kPerNetwork scope, one per synapse tensor
/// for kPerLayer).
TrainResult fine_tune_quantized(nn::Network& net,
                                const data::InMemoryDataset& train_set,
                                const TrainConfig& config, int signal_bits,
                                const WeightClusterConfig& wc,
                                const std::vector<WeightClusterResult>& scales);

/// One with/without accuracy pair at a given bit width.
struct BitRow {
  int bits = 0;
  double acc_without = 0.0;
  double acc_with = 0.0;
};

/// A full experiment table for one model/dataset.
struct ExperimentResult {
  std::string model;
  std::string dataset;
  double ideal_acc = 0.0;
  double dfp8_acc = 0.0;  // populated by the combined experiment only
  std::vector<BitRow> rows;

  double recovered_pp(size_t i) const {
    return (rows[i].acc_with - rows[i].acc_without) * 100.0;
  }
  double drop_pp(size_t i) const {
    return (ideal_acc - rows[i].acc_with) * 100.0;
  }
};

/// Paper Table 2: inter-layer signal quantization, weights stay fp32.
ExperimentResult run_signal_experiment(const ModelFactory& factory,
                                       const std::string& model_name,
                                       const data::InMemoryDataset& train_set,
                                       const data::InMemoryDataset& test_set,
                                       const std::vector<int>& bit_widths,
                                       const TrainConfig& tcfg,
                                       const NcOptions& nc);

/// Paper Table 3: weight quantization, signals stay fp32.
ExperimentResult run_weight_experiment(const ModelFactory& factory,
                                       const std::string& model_name,
                                       const data::InMemoryDataset& train_set,
                                       const data::InMemoryDataset& test_set,
                                       const std::vector<int>& bit_widths,
                                       const TrainConfig& tcfg);

/// Paper Table 4: both quantizations combined, plus the 8-bit dynamic
/// fixed point baseline of [23].
ExperimentResult run_combined_experiment(
    const ModelFactory& factory, const std::string& model_name,
    const data::InMemoryDataset& train_set,
    const data::InMemoryDataset& test_set,
    const std::vector<int>& bit_widths, const TrainConfig& tcfg,
    const NcOptions& nc, int fine_tune_epochs = 2);

}  // namespace qsnc::core
