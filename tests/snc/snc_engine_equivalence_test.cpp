// Crossbar-stage runner vs dense reference oracle.
//
// SncSystem::infer and infer_batch must be bit-identical to
// SncSystem::infer_reference on every supported configuration: same
// predictions, same analog logits (exact double equality — the
// accumulation order per column is identical), and the same activity
// statistics (which describe the signals, not the execution strategy).
// The matrix covers all three model-zoo networks x {ideal, online}
// integration x {deterministic, stochastic} coding, plus the all-zero and
// all-saturated worst-case signals where the event list is empty / fully
// dense.
//
// Deterministic variants run positions through the thread pool, so this
// test carries the `tsan` label (registered via qsnc_tsan_test).
#include "snc/snc_system.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "core/weight_clustering.h"
#include "gtest/gtest.h"
#include "models/model_zoo.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dense.h"
#include "nn/layers/flatten.h"
#include "nn/layers/pool.h"
#include "nn/layers/relu.h"
#include "nn/rng.h"
#include "nn/simd.h"
#include "util/thread_pool.h"

namespace qsnc {
namespace {

struct ModelSpec {
  const char* name;
  std::function<nn::Network(nn::Rng&)> factory;
  nn::Shape input;
};

std::vector<ModelSpec> model_specs() {
  return {
      {"lenet", models::make_lenet_mini, {1, 28, 28}},
      {"alexnet", models::make_alexnet_mini, {3, 32, 32}},
      {"resnet", models::make_resnet_mini, {3, 32, 32}},
  };
}

snc::SncConfig deploy_config(nn::Network& net, int bits) {
  core::fold_batchnorm(net);
  core::WeightClusterConfig wc;
  wc.bits = bits;
  const auto results = core::apply_weight_clustering(net, wc);
  snc::SncConfig cfg;
  cfg.signal_bits = bits;
  cfg.weight_bits = bits;
  cfg.weight_scales.clear();
  for (const auto& r : results) cfg.weight_scales.push_back(r.scale);
  cfg.input_scale =
      std::min(16.0f, static_cast<float>(core::signal_max(bits)));
  return cfg;
}

nn::Tensor random_image(const nn::Shape& chw, uint64_t seed) {
  nn::Tensor image(chw);
  nn::Rng rng(seed);
  for (int64_t i = 0; i < image.numel(); ++i) {
    image[i] = rng.uniform(0.0f, 1.0f);
  }
  return image;
}

void expect_stats_equal(const snc::SncStats& got,
                        const snc::SncStats& want, const std::string& ctx) {
  EXPECT_EQ(got.total_spikes, want.total_spikes) << ctx;
  EXPECT_EQ(got.window_slots, want.window_slots) << ctx;
  EXPECT_EQ(got.layers, want.layers) << ctx;
  ASSERT_EQ(got.stage.size(), want.stage.size()) << ctx;
  for (size_t s = 0; s < got.stage.size(); ++s) {
    const std::string stage_ctx = ctx + " stage " + std::to_string(s);
    EXPECT_EQ(got.stage[s].rows, want.stage[s].rows) << stage_ctx;
    EXPECT_EQ(got.stage[s].cols, want.stage[s].cols) << stage_ctx;
    EXPECT_EQ(got.stage[s].positions, want.stage[s].positions)
        << stage_ctx;
    EXPECT_EQ(got.stage[s].input_events, want.stage[s].input_events)
        << stage_ctx;
    EXPECT_EQ(got.stage[s].spikes, want.stage[s].spikes) << stage_ctx;
    EXPECT_EQ(got.stage[s].occupied_slots, want.stage[s].occupied_slots)
        << stage_ctx;
    EXPECT_EQ(got.stage[s].write_retries, want.stage[s].write_retries)
        << stage_ctx;
    EXPECT_EQ(got.stage[s].faults_detected, want.stage[s].faults_detected)
        << stage_ctx;
    EXPECT_EQ(got.stage[s].faults_compensated,
              want.stage[s].faults_compensated)
        << stage_ctx;
    EXPECT_EQ(got.stage[s].residual_faults, want.stage[s].residual_faults)
        << stage_ctx;
    EXPECT_EQ(got.stage[s].remapped_cols, want.stage[s].remapped_cols)
        << stage_ctx;
  }
}

// Runs `images` through infer() on one system and infer_reference() on a
// second, identically configured one (so stochastic draws see the same
// RNG streams) and asserts bitwise-equal predictions, logits, and
// statistics.
void check_equivalence(const ModelSpec& spec, snc::IntegrationMode mode,
                       bool stochastic,
                       const std::vector<nn::Tensor>& images) {
  const int bits = 4;
  auto make_system = [&](nn::Network& net) {
    snc::SncConfig cfg = deploy_config(net, bits);
    cfg.mode = mode;
    cfg.stochastic_coding = stochastic;
    return std::make_unique<snc::SncSystem>(net, spec.input, cfg);
  };
  nn::Rng rng_a(3);
  nn::Network net_a = spec.factory(rng_a);
  const std::unique_ptr<snc::SncSystem> runner = make_system(net_a);
  nn::Rng rng_b(3);
  nn::Network net_b = spec.factory(rng_b);
  const std::unique_ptr<snc::SncSystem> oracle = make_system(net_b);

  const std::string base_ctx =
      std::string(spec.name) +
      (mode == snc::IntegrationMode::kOnline ? " online" : " ideal") +
      (stochastic ? " stochastic" : " deterministic");
  for (size_t i = 0; i < images.size(); ++i) {
    const std::string ctx = base_ctx + " image " + std::to_string(i);
    snc::SncStats runner_stats;
    snc::SncStats oracle_stats;
    const int64_t runner_pred = runner->infer(images[i], &runner_stats);
    const int64_t oracle_pred =
        oracle->infer_reference(images[i], &oracle_stats);
    EXPECT_EQ(runner_pred, oracle_pred) << ctx;
    ASSERT_EQ(runner->last_logits().size(), oracle->last_logits().size())
        << ctx;
    for (size_t j = 0; j < runner->last_logits().size(); ++j) {
      // Exact double equality: the runner must accumulate in the oracle's
      // order, not merely approximate it.
      EXPECT_EQ(runner->last_logits()[j], oracle->last_logits()[j])
          << ctx << " logit " << j;
    }
    expect_stats_equal(runner_stats, oracle_stats, ctx);
  }
}

TEST(SncEngineEquivalenceTest, ModelZooIdealDeterministic) {
  for (const ModelSpec& spec : model_specs()) {
    check_equivalence(spec, snc::IntegrationMode::kIdealIntegration, false,
                      {random_image(spec.input, 21),
                       random_image(spec.input, 22)});
  }
}

TEST(SncEngineEquivalenceTest, ModelZooOnlineDeterministic) {
  for (const ModelSpec& spec : model_specs()) {
    check_equivalence(spec, snc::IntegrationMode::kOnline, false,
                      {random_image(spec.input, 23)});
  }
}

TEST(SncEngineEquivalenceTest, ModelZooIdealStochastic) {
  for (const ModelSpec& spec : model_specs()) {
    check_equivalence(spec, snc::IntegrationMode::kIdealIntegration, true,
                      {random_image(spec.input, 24)});
  }
}

TEST(SncEngineEquivalenceTest, ModelZooOnlineStochastic) {
  for (const ModelSpec& spec : model_specs()) {
    check_equivalence(spec, snc::IntegrationMode::kOnline, true,
                      {random_image(spec.input, 25)});
  }
}

// Worst-case signals. All-zero: the event list is empty at the first
// stage (the runner must still produce the bias-driven outputs and pay
// zero row drives). All-saturated: every input row is an event, so the
// runner degenerates to dense work yet must stay bit-identical.
TEST(SncEngineEquivalenceTest, AllZeroImage) {
  for (const ModelSpec& spec : model_specs()) {
    nn::Tensor zero(spec.input);  // zero-initialized
    for (snc::IntegrationMode mode :
         {snc::IntegrationMode::kIdealIntegration,
          snc::IntegrationMode::kOnline}) {
      check_equivalence(spec, mode, false, {zero});
    }
  }
}

TEST(SncEngineEquivalenceTest, AllSaturatedImage) {
  for (const ModelSpec& spec : model_specs()) {
    nn::Tensor ones(spec.input, 1.0f);
    for (snc::IntegrationMode mode :
         {snc::IntegrationMode::kIdealIntegration,
          snc::IntegrationMode::kOnline}) {
      check_equivalence(spec, mode, false, {ones});
    }
  }
}

TEST(SncEngineEquivalenceTest, AllZeroImageDrivesNoFirstStageRows) {
  const ModelSpec spec = model_specs().front();  // lenet
  nn::Rng rng(3);
  nn::Network net = spec.factory(rng);
  snc::SncConfig cfg = deploy_config(net, 4);
  snc::SncSystem system(net, spec.input, cfg);
  snc::SncStats stats;
  system.infer(nn::Tensor(spec.input), &stats);
  ASSERT_FALSE(stats.stage.empty());
  EXPECT_EQ(stats.stage[0].input_events, 0);
  EXPECT_DOUBLE_EQ(stats.stage[0].input_sparsity(), 1.0);
  EXPECT_GT(stats.dense_row_drives(), 0);
}

// ---------------------------------------------------------------------
// Batch equivalence: SncSystem::infer_batch must be bit-identical to the
// oracle run one image at a time — same predictions, same analog logits
// (exact double equality), and the same per-image statistics — at every
// batch size, with deterministic and stochastic coding, and under both
// kernel dispatches (AVX2 and forced scalar). Stochastic coding draws a
// dedicated RNG stream per image (stream-per-image seeding), which is
// what makes the guarantee hold regardless of how images are grouped
// into batches.
// ---------------------------------------------------------------------

// Widths chosen for the register-blocked batch kernel: the conv stage's
// 2*cols = 10 and the output's 6 end in a partial 4-wide vector, and the
// hidden dense stage's 54 spans more than one register block with a
// partial vector in its last block.
nn::Network make_odd_width_net(nn::Rng& rng) {
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 5, 3, 1, 1, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(5 * 6 * 6, 27, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(27, 3, rng);
  return net;
}

// The model zoo plus the odd-width net.
std::vector<ModelSpec> batch_model_specs() {
  std::vector<ModelSpec> specs = model_specs();
  specs.push_back({"odd-width", make_odd_width_net, {1, 12, 12}});
  return specs;
}

nn::Tensor stack_images(const std::vector<nn::Tensor>& images) {
  const nn::Shape& chw = images.front().shape();
  nn::Tensor batch({static_cast<int64_t>(images.size()), chw[0], chw[1],
                    chw[2]});
  const int64_t numel = images.front().numel();
  for (size_t b = 0; b < images.size(); ++b) {
    std::copy(images[b].data(), images[b].data() + numel,
              batch.data() + static_cast<int64_t>(b) * numel);
  }
  return batch;
}

// Per-image results a batched run must reproduce: predictions, logits and
// stats of the reference path, and the panel traffic of infer() at B=1
// (the oracle streams no panel).
struct SingleReference {
  std::vector<int64_t> preds;
  std::vector<std::vector<double>> logits;
  std::vector<snc::SncStats> stats;
  std::vector<int64_t> panel_bytes;
};

// Runs `images` through `batch_system` grouped per `batch_sizes` and
// compares every image with its per-image reference. `group_bytes`
// holds each group's panel traffic: filled on the first call, checked on
// later ones.
void check_batch_groups(snc::SncSystem& batch_system,
                        const std::vector<nn::Tensor>& images,
                        const std::vector<int64_t>& batch_sizes,
                        const SingleReference& single,
                        std::vector<int64_t>& group_bytes,
                        const std::string& ctx_tag) {
  const bool record = group_bytes.empty();
  size_t next = 0;
  for (size_t g = 0; g < batch_sizes.size(); ++g) {
    const int64_t batch_size = batch_sizes[g];
    ASSERT_LE(next + static_cast<size_t>(batch_size), images.size())
        << ctx_tag;
    std::vector<nn::Tensor> group(
        images.begin() + static_cast<int64_t>(next),
        images.begin() + static_cast<int64_t>(next) + batch_size);
    std::vector<snc::SncStats> batch_stats;
    const int64_t bytes0 = batch_system.panel_bytes_streamed();
    const std::vector<int64_t> preds =
        batch_system.infer_batch(stack_images(group), &batch_stats);
    const int64_t bytes = batch_system.panel_bytes_streamed() - bytes0;
    ASSERT_EQ(preds.size(), static_cast<size_t>(batch_size)) << ctx_tag;
    ASSERT_EQ(batch_stats.size(), static_cast<size_t>(batch_size))
        << ctx_tag;
    const std::string group_ctx =
        ctx_tag + " group " + std::to_string(g) + " (batch " +
        std::to_string(batch_size) + ")";
    int64_t max_single = 0;
    int64_t sum_single = 0;
    for (int64_t b = 0; b < batch_size; ++b) {
      const int64_t sb = single.panel_bytes[next + static_cast<size_t>(b)];
      max_single = std::max(max_single, sb);
      sum_single += sb;
    }
    if (batch_size == 1) {
      EXPECT_EQ(bytes, sum_single) << group_ctx << " panel bytes";
    } else {
      EXPECT_GE(bytes, max_single) << group_ctx << " panel bytes";
      EXPECT_LE(bytes, sum_single) << group_ctx << " panel bytes";
    }
    if (record) {
      group_bytes.push_back(bytes);
    } else {
      EXPECT_EQ(bytes, group_bytes[g]) << group_ctx << " panel bytes";
    }
    for (int64_t b = 0; b < batch_size; ++b) {
      const size_t i = next + static_cast<size_t>(b);
      const std::string ctx = ctx_tag + " image " + std::to_string(i) +
                              " (batch " + std::to_string(batch_size) +
                              " slot " + std::to_string(b) + ")";
      EXPECT_EQ(preds[static_cast<size_t>(b)], single.preds[i]) << ctx;
      const std::vector<double>& logits =
          batch_system.last_batch_logits()[static_cast<size_t>(b)];
      ASSERT_EQ(logits.size(), single.logits[i].size()) << ctx;
      for (size_t j = 0; j < logits.size(); ++j) {
        // Exact double equality: batching must not change the
        // accumulation order within any column.
        EXPECT_EQ(logits[j], single.logits[i][j]) << ctx << " logit " << j;
      }
      expect_stats_equal(batch_stats[static_cast<size_t>(b)],
                         single.stats[i], ctx);
    }
    next += static_cast<size_t>(batch_size);
  }
  EXPECT_EQ(next, images.size()) << ctx_tag;
}

// Builds identically configured systems and records the per-image
// reference: infer_reference() on one system, plus infer()'s B=1 panel
// traffic on another. Then runs `images`
// grouped per `batch_sizes` on a fresh system per kernel dispatch (AVX2
// where available, then forced scalar) and asserts per-image bitwise
// equality of predictions, logits, and stats. Panel traffic must match
// infer() exactly at B=1; a larger batch streams each union row once, so
// it lies between the largest single image's traffic and the sum over the
// group — and is the same under either dispatch.
void check_batch_equivalence(const ModelSpec& spec, snc::IntegrationMode mode,
                             bool stochastic,
                             const std::vector<nn::Tensor>& images,
                             const std::vector<int64_t>& batch_sizes,
                             const std::string& ctx_tag) {
  const int bits = 4;
  auto make_system = [&](nn::Network& net) {
    snc::SncConfig cfg = deploy_config(net, bits);
    cfg.mode = mode;
    cfg.stochastic_coding = stochastic;
    return std::make_unique<snc::SncSystem>(net, spec.input, cfg);
  };

  SingleReference single;
  {
    nn::Rng rng(3);
    nn::Network net = spec.factory(rng);
    const std::unique_ptr<snc::SncSystem> system = make_system(net);
    for (const nn::Tensor& image : images) {
      const int64_t bytes0 = system->panel_bytes_streamed();
      system->infer(image);
      single.panel_bytes.push_back(system->panel_bytes_streamed() - bytes0);
    }
  }
  {
    nn::Rng rng(3);
    nn::Network net = spec.factory(rng);
    const std::unique_ptr<snc::SncSystem> oracle = make_system(net);
    for (const nn::Tensor& image : images) {
      snc::SncStats stats;
      const int64_t bytes0 = oracle->panel_bytes_streamed();
      single.preds.push_back(oracle->infer_reference(image, &stats));
      EXPECT_EQ(oracle->panel_bytes_streamed(), bytes0) << ctx_tag;
      single.logits.push_back(oracle->last_logits());
      single.stats.push_back(stats);
    }
  }

  std::vector<int64_t> group_bytes;  // per group, from the first dispatch
  const bool was_scalar = nn::simd::set_force_scalar(false);
  for (const bool scalar : {false, true}) {
    nn::simd::set_force_scalar(scalar);
    const std::string dispatch_tag =
        ctx_tag + (scalar ? " [scalar]" : " [native]");
    nn::Rng rng_b(3);
    nn::Network net_b = spec.factory(rng_b);
    const std::unique_ptr<snc::SncSystem> batch_system = make_system(net_b);
    check_batch_groups(*batch_system, images, batch_sizes, single,
                       group_bytes, dispatch_tag);
  }
  nn::simd::set_force_scalar(was_scalar);
}

std::vector<nn::Tensor> image_run(const nn::Shape& chw, uint64_t seed0,
                                  int64_t count) {
  std::vector<nn::Tensor> images;
  for (int64_t i = 0; i < count; ++i) {
    images.push_back(random_image(chw, seed0 + static_cast<uint64_t>(i)));
  }
  return images;
}

// Each model-zoo net and the odd-width net, deterministic coding, ideal
// integration, batch sizes 1 / 3 / 8 against the same 12 images run
// singly.
TEST(SncBatchEquivalenceTest, ModelZooIdealDeterministic) {
  for (const ModelSpec& spec : batch_model_specs()) {
    check_batch_equivalence(
        spec, snc::IntegrationMode::kIdealIntegration, false,
        image_run(spec.input, 50, 12),
        {1, 3, 8}, std::string(spec.name) + " ideal deterministic");
  }
}

// Stochastic coding across the same batch-size matrix: per-image RNG
// streams make grouping unobservable.
TEST(SncBatchEquivalenceTest, ModelZooIdealStochastic) {
  for (const ModelSpec& spec : batch_model_specs()) {
    check_batch_equivalence(
        spec, snc::IntegrationMode::kIdealIntegration, true,
        image_run(spec.input, 70, 12),
        {1, 3, 8}, std::string(spec.name) + " ideal stochastic");
  }
}

// Online (slot-by-slot) integration exercises the per-slot union pass and
// the per-image IntegrateFire banks.
TEST(SncBatchEquivalenceTest, ModelZooOnlineDeterministic) {
  for (const ModelSpec& spec : batch_model_specs()) {
    check_batch_equivalence(
        spec, snc::IntegrationMode::kOnline, false,
        image_run(spec.input, 90, 12), {1, 3, 8},
        std::string(spec.name) + " online deterministic");
  }
}

TEST(SncBatchEquivalenceTest, ModelZooOnlineStochastic) {
  for (const ModelSpec& spec : batch_model_specs()) {
    check_batch_equivalence(
        spec, snc::IntegrationMode::kOnline, true,
        image_run(spec.input, 110, 12), {1, 3, 8},
        std::string(spec.name) + " online stochastic");
  }
}

// The batched collapsed read shares one drive buffer and union mask across
// position chunks and keeps its accumulator tile per chunk, so infer_batch
// must produce the same predictions, logits, per-image stats and panel
// traffic at any pool size.
TEST(SncBatchEquivalenceTest, BatchBitIdenticalAcrossThreadCounts) {
  const ModelSpec spec = model_specs().front();  // lenet
  const nn::Tensor batch = stack_images(image_run(spec.input, 90, 8));
  nn::Rng rng(3);
  nn::Network net = spec.factory(rng);
  snc::SncConfig cfg = deploy_config(net, 4);
  snc::SncSystem system(net, spec.input, cfg);

  const int original = util::num_threads();
  std::vector<int64_t> ref_preds;
  std::vector<std::vector<double>> ref_logits;
  std::vector<snc::SncStats> ref_stats;
  int64_t ref_bytes = 0;
  for (int threads : {1, 2, 4}) {
    const std::string ctx = std::to_string(threads) + " threads";
    util::set_num_threads(threads);
    std::vector<snc::SncStats> stats;
    const int64_t bytes0 = system.panel_bytes_streamed();
    const std::vector<int64_t> preds = system.infer_batch(batch, &stats);
    const int64_t bytes = system.panel_bytes_streamed() - bytes0;
    if (threads == 1) {
      ref_preds = preds;
      ref_logits = system.last_batch_logits();
      ref_stats = stats;
      ref_bytes = bytes;
      continue;
    }
    EXPECT_EQ(preds, ref_preds) << ctx;
    EXPECT_EQ(bytes, ref_bytes) << ctx;
    ASSERT_EQ(stats.size(), ref_stats.size()) << ctx;
    for (size_t b = 0; b < stats.size(); ++b) {
      const std::string img_ctx = ctx + " image " + std::to_string(b);
      // Exact double equality: the pool size must not change any sum.
      EXPECT_EQ(system.last_batch_logits()[b], ref_logits[b]) << img_ctx;
      expect_stats_equal(stats[b], ref_stats[b], img_ctx);
    }
  }
  util::set_num_threads(original);
}

// Regression for stream-per-image seeding: the b-th image of any batch
// must consume exactly the RNG stream that the b-th sequential infer()
// would have, so re-grouping a stochastic run ({3, 2, 1} vs six singles)
// changes nothing. A batch-scoped (rather than image-scoped) RNG would
// fail this for every group after the first.
TEST(SncBatchEquivalenceTest, StochasticStreamsFollowImageOrder) {
  const ModelSpec spec = model_specs().front();  // lenet
  check_batch_equivalence(
      spec, snc::IntegrationMode::kIdealIntegration, true,
      image_run(spec.input, 170, 6),
      {3, 2, 1}, "stochastic regrouping");
}

// Shape contract: a batch whose trailing dims disagree with the model
// input must throw, and an empty batch is a no-op returning no
// predictions.
TEST(SncBatchEquivalenceTest, RejectsBadBatchShapes) {
  const ModelSpec spec = model_specs().front();  // lenet
  nn::Rng rng(3);
  nn::Network net = spec.factory(rng);
  snc::SncConfig cfg = deploy_config(net, 4);
  snc::SncSystem system(net, spec.input, cfg);
  EXPECT_THROW(system.infer_batch(nn::Tensor({2, 1, 28, 27})),
               std::invalid_argument);
  EXPECT_THROW(system.infer_batch(nn::Tensor({1, 28, 28})),
               std::invalid_argument);
  EXPECT_TRUE(system.infer_batch(nn::Tensor({0, 1, 28, 28})).empty());
}

TEST(SncEngineEquivalenceTest, StatsExposeWorkReduction) {
  const ModelSpec spec = model_specs().front();  // lenet
  nn::Rng rng(3);
  nn::Network net = spec.factory(rng);
  snc::SncConfig cfg = deploy_config(net, 4);
  snc::SncSystem system(net, spec.input, cfg);
  snc::SncStats stats;
  system.infer(random_image(spec.input, 40), &stats);
  // ReLU + quantization make hidden signals sparse (Eq 3 convergence), so
  // the runner must be doing strictly less row-drive work.
  EXPECT_GT(stats.input_events(), 0);
  EXPECT_LT(stats.input_events(), stats.dense_row_drives());
  EXPECT_GT(stats.input_sparsity(), 0.0);
  EXPECT_LT(stats.input_sparsity(), 1.0);
}

}  // namespace
}  // namespace qsnc
