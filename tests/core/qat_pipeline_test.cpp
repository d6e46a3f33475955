// Integration tests of the experiment pipeline on a down-scaled LeNet /
// synthetic-MNIST workload. These assert the *shape* invariants the paper's
// Tables 2-4 rest on; the bench binaries rerun the same flows at full size.
#include "core/qat_pipeline.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/neuron_convergence.h"
#include "data/synthetic_mnist.h"
#include "models/model_zoo.h"

namespace qsnc::core {
namespace {

class QatPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticMnistConfig tc;
    tc.num_samples = 1000;
    tc.seed = 1;
    data::SyntheticMnistConfig ec = tc;
    ec.num_samples = 250;
    ec.seed = 99;
    train_ = data::make_synthetic_mnist(tc);
    test_ = data::make_synthetic_mnist(ec);
  }

  static TrainConfig fast_config() {
    TrainConfig cfg;
    cfg.epochs = 10;
    return cfg;
  }

  static data::DatasetPtr train_;
  static data::DatasetPtr test_;
};

data::DatasetPtr QatPipelineTest::train_;
data::DatasetPtr QatPipelineTest::test_;

TEST_F(QatPipelineTest, PlainTrainingLearns) {
  nn::Rng rng(1);
  nn::Network net = models::make_lenet(rng);
  const TrainConfig cfg = fast_config();
  const TrainResult r = train(net, *train_, cfg);
  ASSERT_EQ(r.history.size(), static_cast<size_t>(cfg.epochs));
  EXPECT_LT(r.history.back().loss, r.history.front().loss * 0.6f);
  EXPECT_GT(evaluate_accuracy(net, *test_, cfg.input_scale), 0.6);
}

TEST_F(QatPipelineTest, RegularizerConstrainsSignalRange) {
  // Train one net plainly and one with Neuron Convergence; the NC-trained
  // net must keep a far smaller fraction of its inter-layer signals above
  // the 2^{M-1} range threshold (the Fig 4 comparison).
  class MaxRecorder final : public nn::SignalQuantizer {
   public:
    float apply(float o) const override {
      ++total_;
      if (o >= 8.0f) ++above_;  // threshold for M=4
      return o;
    }
    bool pass_through(float) const override { return true; }
    double fraction_above() const {
      return total_ > 0 ? static_cast<double>(above_) / total_ : 0.0;
    }

   private:
    mutable int64_t above_ = 0;
    mutable int64_t total_ = 0;
  };

  const TrainConfig cfg = fast_config();
  auto measure = [&](bool with_nc) {
    nn::Rng rng(cfg.seed);
    nn::Network net = models::make_lenet(rng);
    NeuronConvergenceRegularizer reg(4, 0.1f);
    TrainResult r = train(net, *train_, cfg, with_nc ? &reg : nullptr);
    if (with_nc) {
      EXPECT_GT(r.history.front().penalty, 0.0f);
    }
    MaxRecorder recorder;
    net.set_signal_quantizer(&recorder);
    nn::Tensor batch = test_->batch_images(0, 64);
    batch *= cfg.input_scale;
    net.forward(batch, false);
    net.set_signal_quantizer(nullptr);
    return recorder.fraction_above();
  };

  const double plain_above = measure(false);
  const double nc_above = measure(true);
  EXPECT_LT(nc_above, plain_above * 0.5 + 1e-9);
  EXPECT_LT(nc_above, 0.10);
}

TEST_F(QatPipelineTest, HooksDetachedAfterTraining) {
  nn::Rng rng(3);
  nn::Network net = models::make_lenet(rng);
  TrainConfig cfg = fast_config();
  cfg.epochs = 1;
  NeuronConvergenceRegularizer reg(4, 0.1f);
  train(net, *train_, cfg, &reg, 4, 0);
  for (nn::ReLU* r : net.signal_layers()) {
    EXPECT_EQ(r->quantizer(), nullptr);
  }
  // Forward in train mode reports zero penalty (regularizer detached).
  nn::Tensor x({1, 1, 28, 28});
  net.forward(x, true);
  EXPECT_EQ(net.signal_penalty(), 0.0f);
}

TEST_F(QatPipelineTest, SignalExperimentShapeInvariants) {
  nn::Rng dummy(0);
  const ExperimentResult r = run_signal_experiment(
      models::make_lenet, "Lenet", *train_, *test_, {4, 3}, fast_config(),
      NcOptions{});
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_GT(r.ideal_acc, 0.6);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    // (i) the proposed method never hurts...
    EXPECT_GE(r.rows[i].acc_with, r.rows[i].acc_without - 0.02)
        << "bits " << r.rows[i].bits;
  }
  // (ii) ...and direct quantization degrades as bits shrink (4 -> 3).
  EXPECT_GE(r.rows[0].acc_without, r.rows[1].acc_without - 0.02);
  // (iii) at 3 bits the recovery is substantial (Table 2's key claim).
  EXPECT_GT(r.recovered_pp(1), 2.0);
}

TEST_F(QatPipelineTest, WeightExperimentShapeInvariants) {
  const ExperimentResult r = run_weight_experiment(
      models::make_lenet, "Lenet", *train_, *test_, {4, 3}, fast_config());
  ASSERT_EQ(r.rows.size(), 2u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i].acc_with, r.rows[i].acc_without - 0.02)
        << "bits " << r.rows[i].bits;
  }
  // Clustering plus fine-tune keeps 4-bit weights near the ideal.
  EXPECT_LT(r.drop_pp(0), 10.0);
}

TEST_F(QatPipelineTest, CombinedExperimentShapeInvariants) {
  const ExperimentResult r = run_combined_experiment(
      models::make_lenet, "Lenet", *train_, *test_, {4}, fast_config(),
      NcOptions{}, /*fine_tune_epochs=*/1);
  ASSERT_EQ(r.rows.size(), 1u);
  // The DFP-8 baseline retains the fp32 accuracy (it is the easy regime).
  EXPECT_GT(r.dfp8_acc, r.ideal_acc - 0.05);
  // Combined 4-bit with the proposed method recovers over direct quant.
  EXPECT_GE(r.rows[0].acc_with, r.rows[0].acc_without - 0.02);
}

TEST_F(QatPipelineTest, FineTuneKeepsWeightsOnGrid) {
  nn::Rng rng(4);
  nn::Network net = models::make_lenet(rng);
  TrainConfig cfg = fast_config();
  cfg.epochs = 2;
  train(net, *train_, cfg);

  WeightClusterConfig wc;
  wc.bits = 4;
  const auto wcr = apply_weight_clustering(net, wc);
  TrainConfig ft = cfg;
  ft.epochs = 1;
  fine_tune_quantized(net, *train_, ft, 4, wc, wcr);

  // All synapse weights still on their per-layer grids.
  size_t synapse_idx = 0;
  for (nn::Param* p : net.params()) {
    if (p->value.rank() < 2) continue;
    const float step =
        wcr[synapse_idx].scale / 16.0f;
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      const float k = p->value[i] / step;
      EXPECT_NEAR(k, std::round(k), 1e-3f);
    }
    ++synapse_idx;
  }
}

TEST_F(QatPipelineTest, DeterministicAcrossRuns) {
  const TrainConfig cfg = fast_config();
  nn::Rng rng_a(cfg.seed), rng_b(cfg.seed);
  nn::Network a = models::make_lenet(rng_a);
  nn::Network b = models::make_lenet(rng_b);
  train(a, *train_, cfg);
  train(b, *train_, cfg);
  const double acc_a = evaluate_accuracy(a, *test_, cfg.input_scale);
  const double acc_b = evaluate_accuracy(b, *test_, cfg.input_scale);
  EXPECT_EQ(acc_a, acc_b);
}

TEST(MetricsTest, AccuracyDropHelper) {
  EXPECT_DOUBLE_EQ(accuracy_drop_pp(0.98, 0.96), 2.0);
  EXPECT_DOUBLE_EQ(accuracy_drop_pp(0.5, 0.6), -10.0);
}

}  // namespace
}  // namespace qsnc::core
