// Closed-loop fault tolerance: write-verify programming, differential
// compensation, spare-column remapping, and the static defect map every
// deployment mode programs against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "nn/rng.h"
#include "snc/crossbar.h"
#include "snc/programming.h"
#include "snc/snc_system.h"

namespace qsnc::snc {
namespace {

constexpr int64_t kImageHW = 28;

/// Clustered model-zoo lenet + the matching deploy config (grid-aligned
/// weights are a precondition of SncSystem).
nn::Network make_deployable_lenet(uint64_t seed, SncConfig& config) {
  nn::Rng rng(seed);
  nn::Network net = models::make_lenet_mini(rng);
  core::fold_batchnorm(net);
  core::WeightClusterConfig wc;
  wc.bits = config.weight_bits;
  const auto results = core::apply_weight_clustering(net, wc);
  config.weight_scales.clear();
  for (const auto& r : results) config.weight_scales.push_back(r.scale);
  config.input_scale = std::min(
      16.0f, static_cast<float>(core::signal_max(config.signal_bits)));
  return net;
}

nn::Tensor random_image(uint64_t seed) {
  nn::Tensor image({1, kImageHW, kImageHW});
  nn::Rng pix(seed);
  for (int64_t i = 0; i < image.numel(); ++i) {
    image[i] = pix.uniform(0.0f, 1.0f);
  }
  return image;
}

std::vector<int64_t> make_levels(int64_t rows, int64_t cols, int64_t kmax) {
  // Deterministic small signed levels, like clustered weights.
  std::vector<int64_t> levels(static_cast<size_t>(rows * cols));
  for (int64_t c = 0; c < cols; ++c) {
    for (int64_t r = 0; r < rows; ++r) {
      levels[static_cast<size_t>(c * rows + r)] = ((r + 2 * c) % (2 * kmax + 1)) - kmax;
    }
  }
  return levels;
}

TEST(WriteVerifyTest, IdealDevicesProgramFirstTry) {
  MemristorConfig cfg;
  DifferentialCrossbar xbar(8, 4, cfg);
  nn::Rng rng(1);
  const int64_t kmax = 8;
  const auto levels = make_levels(8, 4, kmax);
  const FaultReport report =
      program_verified(xbar, levels, kmax, rng);
  EXPECT_EQ(report.cells, 32);
  EXPECT_EQ(report.write_retries, 0);
  EXPECT_EQ(report.faults_detected, 0);
  EXPECT_EQ(report.residual_faults, 0);
  EXPECT_LT(worst_level_error(xbar, levels, kmax), 1e-9);
  // Programmed levels round-trip exactly.
  for (int64_t c = 0; c < 4; ++c) {
    for (int64_t r = 0; r < 8; ++r) {
      EXPECT_EQ(xbar.read_level(r, c, kmax),
                levels[static_cast<size_t>(c * 8 + r)]);
    }
  }
}

TEST(WriteVerifyTest, CompensatesStuckOnCellThroughPartner) {
  MemristorConfig cfg;
  DifferentialCrossbar xbar(4, 2, cfg);
  const int64_t kmax = 8;
  // Target k = +2 at (1, 0); plus cell stuck at g_max (level 8). The
  // controller should re-aim minus to 8 - 2 = 6 so the pair still reads 2.
  xbar.set_defect(1, 0, /*minus_array=*/false, DefectKind::kStuckOn);
  nn::Rng rng(1);
  std::vector<int64_t> levels(8, 0);
  levels[0 * 4 + 1] = 2;
  const FaultReport report =
      program_verified(xbar, levels, kmax, rng);
  EXPECT_EQ(report.faults_detected, 1);
  EXPECT_EQ(report.faults_compensated, 1);
  EXPECT_EQ(report.residual_faults, 0);
  EXPECT_EQ(xbar.read_level(1, 0, kmax), 2);
  EXPECT_LT(worst_level_error(xbar, levels, kmax), 0.5);
}

TEST(WriteVerifyTest, StuckFaultPersistsAcrossRetries) {
  MemristorConfig cfg;
  Crossbar xbar(2, 2, cfg);
  xbar.set_defect(0, 0, DefectKind::kStuckOff);
  nn::Rng rng(3);
  // Retrying the same write against a mapped defect never helps: the cell
  // reads g_min regardless of the target level, on every attempt.
  for (int attempt = 0; attempt < 4; ++attempt) {
    xbar.program_cell(0, 0, 8, 8, &rng);
    EXPECT_DOUBLE_EQ(xbar.conductance(0, 0), g_min(cfg));
  }
}

TEST(WriteVerifyTest, DoubleStuckPairRemapsOntoSpare) {
  MemristorConfig cfg;
  const int64_t kmax = 8;
  DifferentialCrossbar xbar(4, 2, cfg, /*spare_cols=*/1);
  // Both cells of pair (2, 1) pinned: compensation has no healthy partner,
  // so the column must reroute to the spare.
  xbar.set_defect(2, 1, /*minus_array=*/false, DefectKind::kStuckOn);
  xbar.set_defect(2, 1, /*minus_array=*/true, DefectKind::kStuckOn);
  nn::Rng rng(1);
  auto levels = make_levels(4, 2, kmax);
  levels[1 * 4 + 2] = -3;
  const FaultReport report =
      program_verified(xbar, levels, kmax, rng);
  EXPECT_EQ(report.remapped_cols, 1);
  EXPECT_EQ(report.residual_faults, 0);
  EXPECT_EQ(report.spare_cols_left, 0);
  EXPECT_EQ(xbar.physical_column(1), 2);  // home cols are 0..1, spare is 2
  EXPECT_EQ(xbar.remapped_cols(), 1);
  EXPECT_LT(worst_level_error(xbar, levels, kmax), 0.5);
  // The logical panel reads come from the spare now.
  EXPECT_EQ(xbar.read_level(2, 1, kmax), -3);
}

TEST(WriteVerifyTest, ResidualFaultRecordedWhenSparesExhausted) {
  MemristorConfig cfg;
  const int64_t kmax = 8;
  DifferentialCrossbar xbar(4, 2, cfg, /*spare_cols=*/0);
  xbar.set_defect(2, 1, /*minus_array=*/false, DefectKind::kStuckOn);
  xbar.set_defect(2, 1, /*minus_array=*/true, DefectKind::kStuckOn);
  nn::Rng rng(1);
  std::vector<int64_t> levels(8, 0);
  levels[1 * 4 + 2] = -3;
  const FaultReport report =
      program_verified(xbar, levels, kmax, rng);
  EXPECT_EQ(report.remapped_cols, 0);
  EXPECT_EQ(report.faults_detected, 1);
  EXPECT_EQ(report.residual_faults, 1);
}

TEST(FaultToleranceSystemTest, RecoveryIsDeterministicInSeed) {
  SncConfig config;
  config.device.stuck_on_rate = 0.02;
  config.device.stuck_off_rate = 0.01;
  config.device.variation_sigma = 0.02;
  config.recovery.write_verify = true;
  config.recovery.spare_cols = 2;
  nn::Network net_a = make_deployable_lenet(5, config);
  nn::Network net_b = make_deployable_lenet(5, config);
  SncSystem a(net_a, {1, kImageHW, kImageHW}, config);
  SncSystem b(net_b, {1, kImageHW, kImageHW}, config);

  const FaultReport ra = a.fault_report();
  const FaultReport rb = b.fault_report();
  EXPECT_EQ(ra.faults_detected, rb.faults_detected);
  EXPECT_EQ(ra.faults_compensated, rb.faults_compensated);
  EXPECT_EQ(ra.residual_faults, rb.residual_faults);
  EXPECT_EQ(ra.remapped_cols, rb.remapped_cols);
  EXPECT_EQ(ra.write_retries, rb.write_retries);
  EXPECT_GT(ra.faults_detected, 0);
}

/// Exact agreement of one image's runner result with the oracle's:
/// prediction, every logit bit, and the full per-stage stats.
void expect_same_inference(int64_t pred, const std::vector<double>& logits,
                           const SncStats& stats, int64_t want_pred,
                           const std::vector<double>& want_logits,
                           const SncStats& want, const std::string& ctx) {
  EXPECT_EQ(pred, want_pred) << ctx;
  EXPECT_EQ(logits, want_logits) << ctx;
  EXPECT_EQ(stats.total_spikes, want.total_spikes) << ctx;
  EXPECT_EQ(stats.layers, want.layers) << ctx;
  ASSERT_EQ(stats.stage.size(), want.stage.size()) << ctx;
  for (size_t s = 0; s < stats.stage.size(); ++s) {
    const SncStageStats& a = stats.stage[s];
    const SncStageStats& b = want.stage[s];
    const std::string sctx = ctx + " stage " + std::to_string(s);
    EXPECT_EQ(a.rows, b.rows) << sctx;
    EXPECT_EQ(a.cols, b.cols) << sctx;
    EXPECT_EQ(a.positions, b.positions) << sctx;
    EXPECT_EQ(a.input_events, b.input_events) << sctx;
    EXPECT_EQ(a.spikes, b.spikes) << sctx;
    EXPECT_EQ(a.occupied_slots, b.occupied_slots) << sctx;
    EXPECT_EQ(a.write_retries, b.write_retries) << sctx;
    EXPECT_EQ(a.faults_detected, b.faults_detected) << sctx;
    EXPECT_EQ(a.faults_compensated, b.faults_compensated) << sctx;
    EXPECT_EQ(a.residual_faults, b.residual_faults) << sctx;
    EXPECT_EQ(a.remapped_cols, b.remapped_cols) << sctx;
  }
}

/// Stacks images [first, first + count) into one [B, C, H, W] tensor.
nn::Tensor stack(const std::vector<nn::Tensor>& images, size_t first,
                 size_t count) {
  const int64_t numel = images[first].numel();
  nn::Tensor batch({static_cast<int64_t>(count), 1, kImageHW, kImageHW});
  for (size_t b = 0; b < count; ++b) {
    std::copy(images[first + b].data(), images[first + b].data() + numel,
              batch.data() + static_cast<int64_t>(b) * numel);
  }
  return batch;
}

/// Runs images through `oracle` one infer_reference() at a time and
/// through `runner` grouped per `batch_sizes` (a group of 1 through
/// infer(), larger ones through infer_batch()), expecting exact agreement.
void expect_runner_matches_oracle(SncSystem& runner, SncSystem& oracle,
                                  const std::vector<nn::Tensor>& images,
                                  const std::vector<size_t>& batch_sizes,
                                  const std::string& ctx) {
  size_t next = 0;
  for (const size_t batch_size : batch_sizes) {
    ASSERT_LE(next + batch_size, images.size()) << ctx;
    std::vector<int64_t> preds;
    std::vector<std::vector<double>> logits;
    std::vector<SncStats> stats;
    if (batch_size == 1) {
      stats.resize(1);
      preds.push_back(runner.infer(images[next], &stats[0]));
      logits.push_back(runner.last_logits());
    } else {
      preds = runner.infer_batch(stack(images, next, batch_size), &stats);
      logits = runner.last_batch_logits();
    }
    for (size_t b = 0; b < batch_size; ++b) {
      SncStats want;
      const int64_t want_pred =
          oracle.infer_reference(images[next + b], &want);
      expect_same_inference(
          preds[b], logits[b], stats[b], want_pred, oracle.last_logits(),
          want,
          ctx + " image " + std::to_string(next + b) + " (batch " +
              std::to_string(batch_size) + ")");
    }
    next += batch_size;
  }
}

std::vector<nn::Tensor> random_images(uint64_t seed0, size_t count) {
  std::vector<nn::Tensor> images;
  for (size_t i = 0; i < count; ++i) images.push_back(random_image(seed0 + i));
  return images;
}

TEST(FaultToleranceSystemTest, FaultMapsIdenticalAcrossEngines) {
  // Identical seeds must yield identical fault maps and recovery actions,
  // so the runner (infer / infer_batch) on one system and the oracle
  // (infer_reference) on a second agree exactly — programming happens
  // before either inference path runs.
  const std::vector<nn::Tensor> images = random_images(3, 12);
  for (const bool stochastic : {false, true}) {
    SncConfig config;
    config.device.stuck_on_rate = 0.02;
    config.recovery.write_verify = true;
    config.recovery.spare_cols = 1;
    config.stochastic_coding = stochastic;
    nn::Network net_a = make_deployable_lenet(9, config);
    nn::Network net_b = make_deployable_lenet(9, config);
    SncSystem runner(net_a, {1, kImageHW, kImageHW}, config);
    SncSystem oracle(net_b, {1, kImageHW, kImageHW}, config);
    EXPECT_GT(runner.fault_report().faults_detected, 0);
    expect_runner_matches_oracle(runner, oracle, images, {1, 3, 8},
                                 stochastic ? "stochastic" : "deterministic");
  }
}

// The runner reads each crossbar through its packed panel, the oracle
// through the physical arrays, so checking one system against itself
// catches a panel left stale by a defect pin or a spare remap.
TEST(FaultToleranceSystemTest, RunnerMatchesOracleAfterSpareRemap) {
  SncConfig config;
  config.device.stuck_on_rate = 0.03;
  config.recovery.write_verify = true;
  config.recovery.spare_cols = 2;
  nn::Network net = make_deployable_lenet(9, config);
  SncSystem system(net, {1, kImageHW, kImageHW}, config);
  ASSERT_GT(system.fault_report().remapped_cols, 0);
  expect_runner_matches_oracle(system, system, random_images(51, 4), {1, 3},
                               "remapped");
}

TEST(FaultToleranceSystemTest, LegacyPathUnchangedWhenRecoveryDisabled) {
  // Passive injection (recovery off) programs against the same static
  // defect map as recovery does: deterministic in the seed, stuck cells
  // pinned whatever is written, and no recovery bookkeeping.
  SncConfig config;
  config.device.variation_sigma = 0.05;
  config.device.stuck_on_rate = 0.01;
  nn::Network net_a = make_deployable_lenet(5, config);
  nn::Network net_b = make_deployable_lenet(5, config);
  SncSystem sys(net_a, {1, kImageHW, kImageHW}, config);
  SncSystem sys2(net_b, {1, kImageHW, kImageHW}, config);
  const std::vector<nn::Tensor> images = random_images(3, 4);
  for (const nn::Tensor& image : images) {
    EXPECT_EQ(sys.infer(image), sys2.infer(image));
    EXPECT_EQ(sys.last_logits(), sys2.last_logits());
  }
  // The runner and the oracle agree, so every pinned cell reached the
  // packed panel.
  expect_runner_matches_oracle(sys, sys, images, {1, 3}, "passive");
  const FaultReport report = sys.fault_report();
  EXPECT_EQ(report.cells, 0);  // no recovery bookkeeping when passive
  EXPECT_EQ(report.faults_detected, 0);

  // The map, not the write, decides a stuck cell: with variation off, the
  // first crossbar reads back exactly as the static map drawn first from
  // the seed says — stuck-on cells at level kmax, every other pair on its
  // fault-free level.
  SncConfig pinned_config = config;
  pinned_config.device.variation_sigma = 0.0;
  SncConfig ideal_config = pinned_config;
  ideal_config.device.stuck_on_rate = 0.0;
  nn::Network net_c = make_deployable_lenet(5, pinned_config);
  SncSystem pinned(net_c, {1, kImageHW, kImageHW}, pinned_config);
  SncSystem ideal(net_c, {1, kImageHW, kImageHW}, ideal_config);
  SncStats stats;
  ideal.infer(images[0], &stats);
  const int64_t rows = stats.stage[0].rows;
  const int64_t cols = stats.stage[0].cols;
  const MemristorConfig& device = pinned_config.device;
  DifferentialCrossbar map_only(rows, cols, device);
  nn::Rng rng(pinned_config.seed);
  map_only.draw_defect_maps(rng);
  const int64_t kmax = int64_t{1} << (pinned_config.weight_bits - 1);
  const float step =
      pinned_config.weight_scales[0] /
      static_cast<float>(int64_t{1} << pinned_config.weight_bits);
  int64_t stuck_pairs = 0;
  for (int64_t c = 0; c < cols; ++c) {
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t k = std::llround(ideal.read_back_weight(0, r, c) / step);
      int64_t plus = std::max<int64_t>(k, 0);
      int64_t minus = std::max<int64_t>(-k, 0);
      if (map_only.plus().conductance(r, c) == g_max(device)) plus = kmax;
      if (map_only.minus().conductance(r, c) == g_max(device)) minus = kmax;
      if (plus - minus != k) ++stuck_pairs;
      EXPECT_EQ(std::llround(pinned.read_back_weight(0, r, c) / step),
                plus - minus)
          << "cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_GT(stuck_pairs, 0);
}

TEST(FaultToleranceSystemTest, AgreementDegradesMonotonicallyInStuckRate) {
  // Property: prediction agreement with the fault-free system is
  // non-increasing (within a seed-noise tolerance) as the stuck-on rate
  // grows — more defective cells can only corrupt more columns. Agreement
  // over random images stands in for labelled accuracy here.
  SncConfig base;
  nn::Network net = make_deployable_lenet(11, base);
  constexpr int kImages = 12;
  std::vector<nn::Tensor> images;
  std::vector<int64_t> clean_predictions;
  {
    SncSystem clean(net, {1, kImageHW, kImageHW}, base);
    for (int i = 0; i < kImages; ++i) {
      images.push_back(random_image(400 + static_cast<uint64_t>(i)));
      clean_predictions.push_back(clean.infer(images.back()));
    }
  }

  const auto agreement = [&](double rate, bool recovered) {
    double total = 0.0;
    const int seeds = 3;
    for (int s = 0; s < seeds; ++s) {
      SncConfig cfg = base;
      cfg.device.stuck_on_rate = rate;
      cfg.seed = 7 + static_cast<uint64_t>(s);
      if (recovered) {
        cfg.recovery.write_verify = true;
        cfg.recovery.spare_cols = 2;
      }
      SncSystem sys(net, {1, kImageHW, kImageHW}, cfg);
      int match = 0;
      for (int i = 0; i < kImages; ++i) {
        if (sys.infer(images[static_cast<size_t>(i)]) ==
            clean_predictions[static_cast<size_t>(i)]) {
          ++match;
        }
      }
      total += static_cast<double>(match) / kImages;
    }
    return total / seeds;
  };

  const double rates[] = {0.0, 0.02, 0.06, 0.15};
  constexpr double kTolerance = 0.15;  // 3 seeds x 12 images is noisy
  double prev = 2.0;
  for (double rate : rates) {
    const double a = agreement(rate, /*recovered=*/false);
    if (rate == 0.0) {
      EXPECT_EQ(a, 1.0);  // no faults: byte-identical
    }
    EXPECT_LE(a, prev + kTolerance) << "rate " << rate;
    prev = std::min(prev, a);
  }
  // And the closed loop is the cure: at 2% stuck-on, recovery must agree
  // with the fault-free system strictly better than passive injection.
  EXPECT_GT(agreement(0.02, true), agreement(0.02, false));
}

}  // namespace
}  // namespace qsnc::snc
