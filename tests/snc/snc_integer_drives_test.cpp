// SncConfig::integer_row_drives equivalence.
//
// With an ideal device model the integer row-drive path accumulates spike
// counts against the signed int16 level panel (nn::iaccumulate_rows_batch)
// instead of the double conductance panel. The integer column sum is
// exact, so the only admissible deviation from the analog path is the
// final y = step * sum + bias double rounding — predictions and activity
// statistics must match exactly and logits to double-epsilon scale.
// When the device is non-ideal or drift recovery is on, the flag must be
// ignored and the system stay byte-identical to a flag-off system.
//
// Deterministic inference runs positions through the thread pool, so this
// test carries the `tsan` label (registered via qsnc_tsan_test).
#include "snc/snc_system.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "core/weight_clustering.h"
#include "gtest/gtest.h"
#include "models/model_zoo.h"
#include "nn/rng.h"
#include "util/thread_pool.h"

namespace qsnc {
namespace {

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

struct SystemPair {
  snc::SncSystem integer;
  snc::SncSystem analog;
};

void expect_stats_equal(const snc::SncStats& a, const snc::SncStats& b,
                        const std::string& ctx) {
  EXPECT_EQ(a.total_spikes, b.total_spikes) << ctx;
  EXPECT_EQ(a.layers, b.layers) << ctx;
  ASSERT_EQ(a.stage.size(), b.stage.size()) << ctx;
  for (size_t s = 0; s < a.stage.size(); ++s) {
    const std::string stage_ctx = ctx + " stage " + std::to_string(s);
    EXPECT_EQ(a.stage[s].input_events, b.stage[s].input_events) << stage_ctx;
    EXPECT_EQ(a.stage[s].spikes, b.stage[s].spikes) << stage_ctx;
  }
}

// Integer-drive system vs analog system over `images`: equal predictions
// and stats, logits within double-rounding distance.
void check_integer_drive_equivalence(snc::SncSystem& integer_system,
                                     snc::SncSystem& analog_system,
                                     const std::vector<nn::Tensor>& images,
                                     const std::string& base_ctx) {
  for (size_t i = 0; i < images.size(); ++i) {
    const std::string ctx = base_ctx + " image " + std::to_string(i);
    snc::SncStats int_stats;
    snc::SncStats analog_stats;
    const int64_t int_pred = integer_system.infer(images[i], &int_stats);
    const int64_t analog_pred = analog_system.infer(images[i], &analog_stats);
    EXPECT_EQ(int_pred, analog_pred) << ctx;
    expect_stats_equal(int_stats, analog_stats, ctx);
    ASSERT_EQ(integer_system.last_logits().size(),
              analog_system.last_logits().size())
        << ctx;
    for (size_t j = 0; j < integer_system.last_logits().size(); ++j) {
      const double ref = analog_system.last_logits()[j];
      EXPECT_NEAR(integer_system.last_logits()[j], ref,
                  std::max(1e-9, 1e-9 * std::abs(ref)))
          << ctx << " logit " << j;
    }
  }
}

TEST(SncIntegerDrivesTest, IdealDeviceMatchesAnalogPath) {
  const int bits = 4;
  nn::Rng rng_a(3);
  nn::Network net_a = models::make_lenet_mini(rng_a);
  snc::SncConfig cfg = deploy_config(net_a, bits);
  cfg.integer_row_drives = true;
  snc::SncSystem integer_system(net_a, {1, 28, 28}, cfg);

  nn::Rng rng_b(3);
  nn::Network net_b = models::make_lenet_mini(rng_b);
  snc::SncConfig cfg_b = deploy_config(net_b, bits);
  snc::SncSystem analog_system(net_b, {1, 28, 28}, cfg_b);

  // The flag plus the ideal device must actually arm the integer panels —
  // otherwise this test compares the analog path against itself.
  EXPECT_GT(integer_system.integer_drive_stage_count(), 0u);
  EXPECT_EQ(analog_system.integer_drive_stage_count(), 0u);

  std::vector<nn::Tensor> images{random_image({1, 28, 28}, 61),
                                 random_image({1, 28, 28}, 62),
                                 nn::Tensor({1, 28, 28}),          // all-zero
                                 nn::Tensor({1, 28, 28}, 1.0f)};   // saturated
  check_integer_drive_equivalence(integer_system, analog_system, images,
                                  "lenet ideal");
}

TEST(SncIntegerDrivesTest, AlexnetIdealDeviceMatchesAnalogPath) {
  const int bits = 4;
  nn::Rng rng_a(3);
  nn::Network net_a = models::make_alexnet_mini(rng_a);
  snc::SncConfig cfg = deploy_config(net_a, bits);
  cfg.integer_row_drives = true;
  snc::SncSystem integer_system(net_a, {3, 32, 32}, cfg);

  nn::Rng rng_b(3);
  nn::Network net_b = models::make_alexnet_mini(rng_b);
  snc::SncConfig cfg_b = deploy_config(net_b, bits);
  snc::SncSystem analog_system(net_b, {3, 32, 32}, cfg_b);

  check_integer_drive_equivalence(integer_system, analog_system,
                                  {random_image({3, 32, 32}, 63)},
                                  "alexnet ideal");
}

// A non-ideal device must disable the integer path: the flag-on system
// stays byte-identical (exact double logits) to a flag-off system with
// the same seed, because both run the same analog code.
TEST(SncIntegerDrivesTest, NonIdealDeviceKeepsAnalogPathExactly) {
  const int bits = 4;
  nn::Rng rng_a(3);
  nn::Network net_a = models::make_lenet_mini(rng_a);
  snc::SncConfig cfg = deploy_config(net_a, bits);
  cfg.device.variation_sigma = 0.05;
  cfg.seed = 99;
  cfg.integer_row_drives = true;
  snc::SncSystem flag_on(net_a, {1, 28, 28}, cfg);

  nn::Rng rng_b(3);
  nn::Network net_b = models::make_lenet_mini(rng_b);
  snc::SncConfig cfg_b = deploy_config(net_b, bits);
  cfg_b.device.variation_sigma = 0.05;
  cfg_b.seed = 99;
  snc::SncSystem flag_off(net_b, {1, 28, 28}, cfg_b);

  EXPECT_EQ(flag_on.integer_drive_stage_count(), 0u);

  const nn::Tensor image = random_image({1, 28, 28}, 71);
  EXPECT_EQ(flag_on.infer(image), flag_off.infer(image));
  ASSERT_EQ(flag_on.last_logits().size(), flag_off.last_logits().size());
  for (size_t j = 0; j < flag_on.last_logits().size(); ++j) {
    EXPECT_EQ(flag_on.last_logits()[j], flag_off.last_logits()[j])
        << "logit " << j;
  }
}

TEST(SncIntegerDrivesTest, DriftRecoveryKeepsAnalogPathExactly) {
  const int bits = 4;
  nn::Rng rng_a(3);
  nn::Network net_a = models::make_lenet_mini(rng_a);
  snc::SncConfig cfg = deploy_config(net_a, bits);
  cfg.recovery.drift_rate_per_window = 1e-4;
  cfg.integer_row_drives = true;
  snc::SncSystem flag_on(net_a, {1, 28, 28}, cfg);

  nn::Rng rng_b(3);
  nn::Network net_b = models::make_lenet_mini(rng_b);
  snc::SncConfig cfg_b = deploy_config(net_b, bits);
  cfg_b.recovery.drift_rate_per_window = 1e-4;
  snc::SncSystem flag_off(net_b, {1, 28, 28}, cfg_b);

  const nn::Tensor image = random_image({1, 28, 28}, 73);
  EXPECT_EQ(flag_on.infer(image), flag_off.infer(image));
  for (size_t j = 0; j < flag_on.last_logits().size(); ++j) {
    EXPECT_EQ(flag_on.last_logits()[j], flag_off.last_logits()[j])
        << "logit " << j;
  }
}

TEST(SncIntegerDrivesTest, BitIdenticalAcrossThreadCounts) {
  const int bits = 4;
  nn::Rng rng(3);
  nn::Network net = models::make_lenet_mini(rng);
  snc::SncConfig cfg = deploy_config(net, bits);
  cfg.integer_row_drives = true;
  snc::SncSystem system(net, {1, 28, 28}, cfg);

  const nn::Tensor image = random_image({1, 28, 28}, 81);
  const int original = util::num_threads();
  util::set_num_threads(1);
  const int64_t reference_pred = system.infer(image);
  const std::vector<double> reference_logits = system.last_logits();
  for (int threads : {2, 8}) {
    util::set_num_threads(threads);
    EXPECT_EQ(system.infer(image), reference_pred) << threads << " threads";
    ASSERT_EQ(system.last_logits().size(), reference_logits.size());
    for (size_t j = 0; j < reference_logits.size(); ++j) {
      EXPECT_EQ(system.last_logits()[j], reference_logits[j])
          << threads << " threads, logit " << j;
    }
  }
  util::set_num_threads(original);
}

// The batched collapsed read shares one drive buffer and union mask across
// position chunks and keeps its scratch per chunk, so infer_batch must
// produce the same predictions, logits, per-image stats and panel traffic
// at any pool size — on the analog ideal read and on integer drives.
TEST(SncIntegerDrivesTest, BatchBitIdenticalAcrossThreadCounts) {
  const int bits = 4;
  std::vector<nn::Tensor> images;
  for (uint64_t seed = 90; seed < 98; ++seed) {
    images.push_back(random_image({1, 28, 28}, seed));
  }
  nn::Tensor batch({8, 1, 28, 28});
  for (size_t b = 0; b < images.size(); ++b) {
    std::copy(images[b].data(), images[b].data() + images[b].numel(),
              batch.data() + static_cast<int64_t>(b) * images[b].numel());
  }
  const int original = util::num_threads();
  for (const bool integer : {false, true}) {
    nn::Rng rng(3);
    nn::Network net = models::make_lenet_mini(rng);
    snc::SncConfig cfg = deploy_config(net, bits);
    cfg.integer_row_drives = integer;
    snc::SncSystem system(net, {1, 28, 28}, cfg);
    ASSERT_EQ(system.integer_drive_stage_count() > 0, integer);

    std::vector<int64_t> ref_preds;
    std::vector<std::vector<double>> ref_logits;
    std::vector<snc::SncStats> ref_stats;
    int64_t ref_bytes = 0;
    for (int threads : {1, 2, 4}) {
      const std::string ctx = std::string(integer ? "integer" : "analog") +
                              ", " + std::to_string(threads) + " threads";
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
  }
  util::set_num_threads(original);
}

}  // namespace
}  // namespace qsnc
