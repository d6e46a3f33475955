// ModelRegistry + backend correctness: serving through the full
// queue -> batcher -> backend pipeline must return bit-identical
// predictions to the direct execution path for all three backends
// (ISSUE 2 acceptance). The "direct" references rebuild the same network
// from the same seed, replaying exactly the transforms the registry
// applies.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "nn/network.h"
#include "nn/rng.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace qsnc::serve {
namespace {

constexpr uint64_t kSeed = 21;
constexpr int kBits = 4;
constexpr int kImages = 12;

std::vector<nn::Tensor> test_images(const nn::Shape& chw, int n) {
  nn::Rng rng(555);
  std::vector<nn::Tensor> images;
  for (int i = 0; i < n; ++i) {
    nn::Tensor t(chw);
    for (int64_t j = 0; j < t.numel(); ++j) {
      t[j] = rng.uniform(0.0f, 1.0f);
    }
    images.push_back(std::move(t));
  }
  return images;
}

nn::Tensor as_batch(const std::vector<nn::Tensor>& images) {
  const nn::Shape& chw = images[0].shape();
  nn::Tensor batch({static_cast<int64_t>(images.size()), chw[0], chw[1],
                    chw[2]});
  const int64_t numel = images[0].numel();
  for (size_t i = 0; i < images.size(); ++i) {
    std::copy(images[i].data(), images[i].data() + numel,
              batch.data() + static_cast<int64_t>(i) * numel);
  }
  return batch;
}

/// Serves all images concurrently so real multi-request batches form.
std::vector<int64_t> serve_predictions(ServeCore& core,
                                       const std::string& model,
                                       const std::vector<nn::Tensor>& imgs) {
  std::vector<std::future<Response>> futures;
  for (const nn::Tensor& img : imgs) {
    futures.push_back(core.infer_async(model, img));
  }
  std::vector<int64_t> out;
  bool saw_multi_batch = false;
  for (auto& f : futures) {
    Response r = f.get();
    EXPECT_EQ(r.status, Status::kOk) << r.error;
    if (r.batch_size > 1) saw_multi_batch = true;
    out.push_back(r.prediction);
  }
  EXPECT_TRUE(saw_multi_batch)
      << "async burst should have produced at least one multi-image batch";
  return out;
}

TEST(RegistryBackendTest, Fp32MatchesDirectForward) {
  ModelRegistry registry;
  ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = BackendKind::kFp32;
  cfg.init_seed = kSeed;
  registry.add("m", cfg);
  BatchOptions opts;
  opts.max_batch = 4;
  opts.batch_timeout_us = 20000;  // wide window: the async burst must
                                  // coalesce even under sanitizers
  ServeCore core(registry, opts);

  const auto images = test_images({1, 28, 28}, kImages);
  const std::vector<int64_t> served =
      serve_predictions(core, "m", images);

  // Direct reference: same architecture + seed, scaled input, predict.
  nn::Rng rng(kSeed);
  nn::Network net = models::make_lenet_mini(rng);
  nn::Tensor batch = as_batch(images);
  batch *= 16.0f;
  const std::vector<int64_t> direct = net.predict(batch);
  EXPECT_EQ(served, direct);
}

TEST(RegistryBackendTest, QuantMatchesDirectFakeQuantPath) {
  ModelRegistry registry;
  ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = BackendKind::kQuant;
  cfg.bits = kBits;
  cfg.init_seed = kSeed;
  registry.add("m", cfg);
  BatchOptions opts;
  opts.max_batch = 4;
  opts.batch_timeout_us = 20000;  // wide window: the async burst must
                                  // coalesce even under sanitizers
  ServeCore core(registry, opts);

  const auto images = test_images({1, 28, 28}, kImages);
  const std::vector<int64_t> served =
      serve_predictions(core, "m", images);

  // Direct reference: quantizer attached, SNC-style input encoding.
  nn::Rng rng(kSeed);
  nn::Network net = models::make_lenet_mini(rng);
  core::IntegerSignalQuantizer quantizer(kBits);
  net.set_signal_quantizer(&quantizer);
  nn::Tensor batch = as_batch(images);
  const float scale =
      std::min(16.0f, static_cast<float>(core::signal_max(kBits)));
  batch *= scale;
  for (int64_t i = 0; i < batch.numel(); ++i) {
    batch[i] = core::quantize_input_signal(batch[i], kBits);
  }
  const std::vector<int64_t> direct = net.predict(batch);
  net.set_signal_quantizer(nullptr);
  EXPECT_EQ(served, direct);
}

TEST(RegistryBackendTest, SncMatchesDirectSpikeInference) {
  ModelRegistry registry;
  ModelConfig cfg;
  cfg.architecture = "lenet-mini";
  cfg.backend = BackendKind::kSnc;
  cfg.bits = kBits;
  cfg.init_seed = kSeed;
  cfg.snc_replicas = 2;  // ignored: identical replicas are not built
  registry.add("m", cfg);
  EXPECT_EQ(
      dynamic_cast<SncBackend&>(registry.backend("m")).replica_count(), 1u);
  BatchOptions opts;
  opts.max_batch = 4;
  opts.batch_timeout_us = 20000;  // wide window: the async burst must
                                  // coalesce even under sanitizers
  ServeCore core(registry, opts);

  const auto images = test_images({1, 28, 28}, 6);
  const std::vector<int64_t> served =
      serve_predictions(core, "m", images);

  // Direct reference: fold, cluster, program one SncSystem, infer per
  // image — the deployment recipe from core/bn_folding.h.
  nn::Rng rng(kSeed);
  nn::Network net = models::make_lenet_mini(rng);
  core::fold_batchnorm(net);
  core::WeightClusterConfig wc;
  wc.bits = kBits;
  const auto results = core::apply_weight_clustering(net, wc);
  snc::SncConfig snc_cfg;
  snc_cfg.signal_bits = kBits;
  snc_cfg.weight_bits = kBits;
  snc_cfg.weight_scales.clear();
  for (const auto& r : results) snc_cfg.weight_scales.push_back(r.scale);
  snc_cfg.input_scale =
      std::min(16.0f, static_cast<float>(core::signal_max(kBits)));
  snc::SncSystem system(net, {1, 28, 28}, snc_cfg);
  std::vector<int64_t> direct;
  for (const nn::Tensor& img : images) direct.push_back(system.infer(img));
  EXPECT_EQ(served, direct);
}

// The single-system deployment and a per_replica_seeds pool (which runs
// each window whole on one healthy replica of several) must agree, and
// both must fold activity stats per image — a window of 6 images counts
// as 6 images in activity_totals, not 1. The devices are ideal, so
// per-replica seeds cannot change a prediction.
TEST(RegistryBackendTest, SncBatchNativeMatchesFanOutAndFoldsPerImage) {
  const auto images = test_images({1, 28, 28}, 6);
  std::vector<int64_t> preds[2];
  for (const bool fan_out : {false, true}) {
    ModelRegistry registry;
    ModelConfig cfg;
    cfg.architecture = "lenet-mini";
    cfg.backend = BackendKind::kSnc;
    cfg.bits = kBits;
    cfg.init_seed = kSeed;
    cfg.snc_replicas = 2;
    cfg.snc_health.enabled = fan_out;
    cfg.snc_health.per_replica_seeds = fan_out;
    registry.add("m", cfg);
    Backend& backend = registry.backend("m");
    preds[fan_out ? 1 : 0] = backend.infer_batch(as_batch(images));
    EXPECT_FALSE(backend.last_batch_degraded());

    auto* snc = dynamic_cast<SncBackend*>(&backend);
    ASSERT_NE(snc, nullptr);
    // Only the per-replica-seed deployment keeps a pool; identically seeded
    // replicas would be bit-identical, so the other programs one system.
    EXPECT_EQ(snc->replica_count(), fan_out ? 2u : 1u);
    int64_t folded = 0;
    const snc::SncStats totals = snc->activity_totals(&folded);
    EXPECT_EQ(folded, 6);
    EXPECT_FALSE(totals.stage.empty());
    EXPECT_GT(totals.total_spikes, 0);
  }
  EXPECT_EQ(preds[0], preds[1]);
}

// snc_activity_tables (qsnc deploy, the snc stats appendix) averages each
// stage's folded counters over the images, and adds the fault-recovery
// table only when recovery programmed cells.
TEST(RegistryBackendTest, SncActivityTablesAverageOverImages) {
  snc::SncStats image;
  image.stage.resize(1);
  image.stage[0].rows = 4;
  image.stage[0].cols = 2;
  image.stage[0].positions = 1;
  image.stage[0].input_events = 3;
  image.stage[0].spikes = 5;
  snc::SncStats totals;
  totals.add(image);
  image.stage[0].input_events = 1;
  image.stage[0].spikes = 1;
  totals.add(image);
  EXPECT_EQ(totals.stage[0].positions, 2);

  const std::string plain =
      snc_activity_tables(totals, 2, snc::FaultReport{}, "faults");
  // events/img (3+1)/2, sparsity 1 - 4/(4 rows x 2 positions), spikes/img.
  EXPECT_NE(plain.find("2.0         50.0%     3.0"), std::string::npos)
      << plain;
  EXPECT_EQ(plain.find("faults:"), std::string::npos);

  snc::FaultReport faults;
  faults.cells = 8;
  faults.write_retries = 3;
  const std::string with_faults =
      snc_activity_tables(totals, 2, faults, "faults");
  EXPECT_EQ(with_faults.rfind(plain + "\nfaults:\n", 0), 0u) << with_faults;
  EXPECT_EQ(snc_activity_tables(totals, 0, snc::FaultReport{}, "faults"),
            "");
}

TEST(RegistryBackendTest, RegistryValidation) {
  ModelRegistry registry;
  EXPECT_THROW(registry.backend("nope"), std::invalid_argument);
  ModelConfig cfg;
  cfg.architecture = "not-a-model";
  EXPECT_THROW(registry.add("m", cfg), std::invalid_argument);
  cfg.architecture = "lenet-mini";
  registry.add("m", cfg);
  EXPECT_THROW(registry.add("m", cfg), std::invalid_argument);
  EXPECT_TRUE(registry.contains("m"));
  EXPECT_EQ(registry.input_shape("m"), (nn::Shape{1, 28, 28}));
  EXPECT_THROW(parse_backend_kind("tpu"), std::invalid_argument);
}

TEST(RegistryBackendTest, UnknownModelInferIsImmediateError) {
  ModelRegistry registry;
  ModelConfig cfg;
  registry.add("m", cfg);
  ServeCore core(registry, BatchOptions{});
  nn::Tensor img({1, 28, 28});
  const Response r = core.infer("ghost", img);
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("unknown model"), std::string::npos);
}

}  // namespace
}  // namespace qsnc::serve
