// End-to-end replica health monitoring: canary checks, quarantine, the
// quant degradation ladder, and reprogram-based recovery.
//
// The quarantine contract under test: a replica that deviates from the
// ideal-device canary reference is removed from the free list *before*
// any request of the batch is dispatched, so zero requests are ever
// served from a quarantined replica — every answer comes either from a
// healthy replica or from the quant fallback (flagged degraded).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "nn/rng.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace qsnc::serve {
namespace {

constexpr int kBits = 4;

nn::Tensor random_image(uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor image({1, 28, 28});
  for (int64_t i = 0; i < image.numel(); ++i) image[i] = rng.uniform();
  return image;
}

/// The registry's kSnc deployment recipe (fold, cluster, scales), applied
/// in place; returns the matching SncConfig.
snc::SncConfig deploy(nn::Network& net) {
  core::fold_batchnorm(net);
  core::WeightClusterConfig wc;
  wc.bits = kBits;
  const auto results = core::apply_weight_clustering(net, wc);
  snc::SncConfig cfg;
  cfg.signal_bits = kBits;
  cfg.weight_bits = kBits;
  cfg.weight_scales.clear();
  for (const auto& r : results) cfg.weight_scales.push_back(r.scale);
  cfg.input_scale =
      std::min(16.0f, static_cast<float>(core::signal_max(kBits)));
  return cfg;
}

TEST(HealthE2ETest, QuarantineFallsBackToQuantWithDegradedFlag) {
  // Heavily faulted passive replicas (no write-verify) with independent
  // per-replica fault draws: the canary check must quarantine them at the
  // first batch and serve everything from the quant fallback.
  ModelRegistry registry;
  ModelConfig config;
  config.architecture = "lenet-mini";
  config.backend = BackendKind::kSnc;
  config.bits = kBits;
  config.snc_replicas = 2;
  config.snc_stuck_on_rate = 0.15;
  config.snc_health.enabled = true;
  config.snc_health.check_interval_batches = 1;
  config.snc_health.canary_images = 3;
  config.snc_health.min_healthy_fraction = 1.0;
  config.snc_health.max_reprogram_attempts = 1;
  config.snc_health.per_replica_seeds = true;
  registry.add("m", config);

  // Known-good answers: the quant path over an identically deployed
  // network (same init seed, same fold + cluster transforms).
  nn::Rng rng(config.init_seed);
  nn::Network reference_net = models::make_lenet_mini(rng);
  core::fold_batchnorm(reference_net);
  core::WeightClusterConfig wc;
  wc.bits = kBits;
  core::apply_weight_clustering(reference_net, wc);
  QuantBackend reference(reference_net, {1, 28, 28}, kBits);

  BatchOptions opts;
  opts.batch_timeout_us = 0;
  ServeCore core(registry, opts);
  const int kRequests = 6;
  int degraded_ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    const nn::Tensor image = random_image(100 + static_cast<uint64_t>(i));
    const Response r = core.infer("m", image);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_TRUE(r.degraded);
    nn::Tensor batch({1, 1, 28, 28});
    std::copy(image.data(), image.data() + image.numel(), batch.data());
    EXPECT_EQ(r.prediction, reference.infer_batch(batch)[0])
        << "request " << i << " not served by the quant fallback";
    if (r.degraded && r.status == Status::kOk) ++degraded_ok;
  }
  EXPECT_EQ(degraded_ok, kRequests);

  auto& backend = dynamic_cast<SncBackend&>(registry.backend("m"));
  const ReplicaHealthSnapshot h = backend.health_snapshot();
  EXPECT_TRUE(h.enabled);
  EXPECT_EQ(h.replicas, 2);
  EXPECT_GE(h.quarantine_events, 1);
  EXPECT_EQ(h.healthy + h.quarantined, h.replicas);
  // Reprogramming re-draws the same deterministic faults, so it cannot
  // rescue a passive replica: every attempt must have been spent.
  EXPECT_EQ(h.reprogram_attempts, h.quarantine_events);
  EXPECT_EQ(h.recoveries, 0);
  EXPECT_GE(h.degraded_batches, static_cast<int64_t>(kRequests));

  const ModelStatsSnapshot stats = core.stats().at(0);
  EXPECT_EQ(stats.degraded, static_cast<uint64_t>(kRequests));
  const std::string report = core.stats_report();
  EXPECT_NE(report.find("replica health"), std::string::npos);
}

TEST(HealthE2ETest, DriftedReplicaRecoversByReprogramming) {
  // Ideal devices + write-verify: after severe retention drift the canary
  // deviates, but a reprogram restores the replica — no quarantine, no
  // degradation.
  nn::Rng rng(1);
  nn::Network net = models::make_lenet_mini(rng);
  snc::SncConfig cfg = deploy(net);
  cfg.recovery.write_verify = true;
  cfg.recovery.drift_rate_per_window = 0.01;
  cfg.recovery.drift_sigma = 0.3;

  ReplicaHealthConfig health;
  health.enabled = true;
  health.check_interval_batches = 1;
  health.canary_images = 2;
  health.min_healthy_fraction = 0.5;
  health.max_reprogram_attempts = 2;
  // Identically seeded: the backend programs one system whatever the
  // requested replica count.
  SncBackend backend(net, {1, 28, 28}, cfg, /*replicas=*/2, health);
  ASSERT_EQ(backend.replica_count(), 1u);

  nn::Tensor batch({2, 1, 28, 28});
  for (int i = 0; i < 2; ++i) {
    const nn::Tensor image = random_image(200 + static_cast<uint64_t>(i));
    std::copy(image.data(), image.data() + image.numel(),
              batch.data() + static_cast<int64_t>(i) * image.numel());
  }
  const std::vector<int64_t> fresh = backend.infer_batch(batch);
  EXPECT_FALSE(backend.last_batch_degraded());

  // Decay every conductance essentially to g_min.
  backend.replica(0).advance_time(5000.0);

  const std::vector<int64_t> recovered = backend.infer_batch(batch);
  EXPECT_FALSE(backend.last_batch_degraded());
  EXPECT_EQ(recovered, fresh);

  const ReplicaHealthSnapshot h = backend.health_snapshot();
  EXPECT_EQ(h.quarantined, 0);
  EXPECT_EQ(h.healthy, 1);
  EXPECT_GE(h.recoveries, 1);
  EXPECT_EQ(h.degraded_batches, 0);
}

TEST(HealthE2ETest, HealthyPoolServesUndegradedWithHealthOn) {
  // Health monitoring on ideal devices is a no-op: canaries pass, nothing
  // is quarantined, nothing degrades, and snc predictions flow as before.
  nn::Rng rng(1);
  nn::Network net = models::make_lenet_mini(rng);
  const snc::SncConfig cfg = deploy(net);

  ReplicaHealthConfig health;
  health.enabled = true;
  health.check_interval_batches = 1;
  SncBackend backend(net, {1, 28, 28}, cfg, /*replicas=*/2, health);

  nn::Tensor batch({1, 1, 28, 28});
  const nn::Tensor image = random_image(300);
  std::copy(image.data(), image.data() + image.numel(), batch.data());
  backend.infer_batch(batch);
  EXPECT_FALSE(backend.last_batch_degraded());
  const ReplicaHealthSnapshot h = backend.health_snapshot();
  EXPECT_EQ(h.replicas, 1);
  EXPECT_EQ(h.quarantined, 0);
  EXPECT_EQ(h.quarantine_events, 0);
  EXPECT_EQ(h.degraded_batches, 0);
  EXPECT_EQ(h.canary_runs, 1);  // one check of the one system
}

}  // namespace
}  // namespace qsnc::serve
