// End-to-end replica health monitoring: the one-time canary check,
// quarantine, the quant degradation ladder, and the window rotation over
// a fault-diverse pool.
//
// The quarantine contract under test: a replica that deviates from the
// ideal-device canary reference leaves the serving rotation *before* any
// request of the first window is dispatched, so zero requests are ever
// served from a quarantined replica — every answer comes either from a
// healthy replica or from the quant fallback (flagged degraded).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "nn/rng.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/thread_pool.h"

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
  config.snc_health.canary_images = 3;
  config.snc_health.min_healthy_fraction = 1.0;
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
  EXPECT_GE(h.quarantined, 1);
  EXPECT_EQ(h.healthy + h.quarantined, h.replicas);
  // One check, at the first window: each replica ran its canaries once.
  EXPECT_EQ(h.canary_runs, h.replicas);
  EXPECT_GE(h.degraded_batches, static_cast<int64_t>(kRequests));

  const ModelStatsSnapshot stats = core.stats().at(0);
  EXPECT_EQ(stats.degraded, static_cast<uint64_t>(kRequests));
  const std::string report = core.stats_report();
  EXPECT_NE(report.find("replica health"), std::string::npos);
}

TEST(HealthE2ETest, QuarantineHookFiresOncePerQuarantinedReplica) {
  // The journal hook hears about every quarantined replica exactly once:
  // the check runs at the first window and never again.
  nn::Rng rng(1);
  nn::Network net = models::make_lenet_mini(rng);
  snc::SncConfig cfg = deploy(net);
  cfg.device.stuck_on_rate = 0.15;

  ReplicaHealthConfig health;
  health.enabled = true;
  health.per_replica_seeds = true;
  SncBackend backend(net, {1, 28, 28}, cfg, /*replicas=*/3, health);
  std::vector<size_t> hooked;
  backend.set_quarantine_hook(
      [&hooked](size_t replica, const std::string&) {
        hooked.push_back(replica);
      });

  nn::Tensor batch({1, 1, 28, 28});
  const nn::Tensor image = random_image(400);
  std::copy(image.data(), image.data() + image.numel(), batch.data());
  for (int w = 0; w < 4; ++w) backend.infer_batch(batch);
  const ReplicaHealthSnapshot h = backend.health_snapshot();
  EXPECT_GE(h.quarantined, 1);
  EXPECT_EQ(static_cast<int64_t>(hooked.size()), h.quarantined);
  EXPECT_EQ(h.canary_runs, 3);
}

TEST(HealthE2ETest, HealthyPoolServesUndegradedWithHealthOn) {
  // Health monitoring on ideal devices is a no-op: canaries pass, nothing
  // is quarantined, nothing degrades, and snc predictions flow as before.
  // The check runs once, at the first window, however many follow.
  nn::Rng rng(1);
  nn::Network net = models::make_lenet_mini(rng);
  const snc::SncConfig cfg = deploy(net);

  ReplicaHealthConfig health;
  health.enabled = true;
  SncBackend backend(net, {1, 28, 28}, cfg, /*replicas=*/2, health);

  for (int w = 0; w < 5; ++w) {
    nn::Tensor batch({1, 1, 28, 28});
    const nn::Tensor image = random_image(300 + static_cast<uint64_t>(w));
    std::copy(image.data(), image.data() + image.numel(), batch.data());
    backend.infer_batch(batch);
    EXPECT_FALSE(backend.last_batch_degraded());
  }
  const ReplicaHealthSnapshot h = backend.health_snapshot();
  EXPECT_EQ(h.replicas, 1);
  EXPECT_EQ(h.quarantined, 0);
  EXPECT_EQ(h.degraded_batches, 0);
  EXPECT_EQ(h.canary_runs, 1);  // one check of the one system
}

/// Restores the process thread-pool size on scope exit.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(util::num_threads()) {}
  ~ThreadCountGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

TEST(HealthE2ETest, FaultDiversePoolIsReproducibleAndServesEachWindowOnce) {
  // Two identical fault-diverse backends (4 differently seeded replicas
  // with programming variation) fed the same windows must answer
  // identically at any thread count, and every window after the first
  // (which also runs the canaries on every replica) must run whole on
  // exactly one replica.
  ThreadCountGuard guard;
  constexpr int kWindows = 10;
  constexpr int kWindowImages = 8;
  std::vector<nn::Tensor> windows;
  for (int w = 0; w < kWindows; ++w) {
    nn::Tensor batch({kWindowImages, 1, 28, 28});
    for (int i = 0; i < kWindowImages; ++i) {
      const nn::Tensor image =
          random_image(500 + static_cast<uint64_t>(w * kWindowImages + i));
      std::copy(image.data(), image.data() + image.numel(),
                batch.data() + static_cast<int64_t>(i) * image.numel());
    }
    windows.push_back(std::move(batch));
  }
  ModelConfig config;
  config.architecture = "lenet-mini";
  config.backend = BackendKind::kSnc;
  config.bits = kBits;
  config.snc_replicas = 4;
  config.snc_variation_sigma = 0.05;
  config.snc_health.enabled = true;
  config.snc_health.per_replica_seeds = true;

  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    const std::string ctx = "threads " + std::to_string(threads);
    std::vector<std::vector<int64_t>> served[2];
    std::vector<size_t> route[2];  // replica that served each window > 0
    for (int copy = 0; copy < 2; ++copy) {
      ModelRegistry registry;
      registry.add("m", config);
      auto& backend = dynamic_cast<SncBackend&>(registry.backend("m"));
      ASSERT_EQ(backend.replica_count(), 4u) << ctx;
      std::vector<int64_t> bytes(backend.replica_count(), 0);
      for (int w = 0; w < kWindows; ++w) {
        served[copy].push_back(
            backend.infer_batch(windows[static_cast<size_t>(w)]));
        ASSERT_FALSE(backend.last_batch_degraded()) << ctx;
        int replicas_used = 0;
        for (size_t r = 0; r < backend.replica_count(); ++r) {
          const int64_t now = backend.replica(r).panel_bytes_streamed();
          if (now != bytes[r]) {
            ++replicas_used;
            if (w > 0) route[copy].push_back(r);
          }
          bytes[r] = now;
        }
        if (w > 0) {
          EXPECT_EQ(replicas_used, 1) << ctx << " window " << w;
        }
      }
      EXPECT_GE(backend.health_snapshot().healthy, 2) << ctx;
    }
    EXPECT_EQ(served[0], served[1]) << ctx;
    EXPECT_EQ(route[0], route[1]) << ctx;
  }
}

}  // namespace
}  // namespace qsnc::serve
