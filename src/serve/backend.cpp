#include "serve/backend.h"

#include <stdexcept>

#include "nn/rng.h"
#include "report/table.h"
#include "util/thread_pool.h"

namespace qsnc::serve {

int64_t check_batch_shape(const nn::Tensor& batch, const nn::Shape& chw) {
  const nn::Shape& s = batch.shape();
  if (s.size() != 4 || s[1] != chw[0] || s[2] != chw[1] || s[3] != chw[2]) {
    throw std::invalid_argument(
        "Backend: batch shape " + nn::shape_to_string(s) +
        " does not match expected [N, " + std::to_string(chw[0]) + ", " +
        std::to_string(chw[1]) + ", " + std::to_string(chw[2]) + "]");
  }
  return s[0];
}

// ---------------------------------------------------------------------------
// Fp32Backend
// ---------------------------------------------------------------------------

Fp32Backend::Fp32Backend(nn::Network& net, nn::Shape input_chw,
                         float input_scale)
    : net_(net), input_chw_(std::move(input_chw)),
      input_scale_(input_scale) {}

std::vector<int64_t> Fp32Backend::infer_batch(const nn::Tensor& batch) {
  check_batch_shape(batch, input_chw_);
  nn::Tensor scaled = batch;
  if (input_scale_ != 1.0f) scaled *= input_scale_;
  return net_.predict(scaled);
}

// ---------------------------------------------------------------------------
// QuantBackend
// ---------------------------------------------------------------------------

QuantBackend::QuantBackend(nn::Network& net, nn::Shape input_chw, int bits)
    : net_(net), input_chw_(std::move(input_chw)), bits_(bits),
      input_scale_(std::min(
          16.0f, static_cast<float>(core::signal_max(bits)))),
      quantizer_(std::make_unique<core::IntegerSignalQuantizer>(bits)) {
  net_.set_signal_quantizer(quantizer_.get());
  engine_ = core::IntQuantEngine::build(net_, input_chw_, bits_);
}

QuantBackend::~QuantBackend() { net_.set_signal_quantizer(nullptr); }

std::vector<int64_t> QuantBackend::infer_batch(const nn::Tensor& batch) {
  check_batch_shape(batch, input_chw_);
  nn::Tensor encoded(batch.shape());
  const float* pixels = batch.data();
  float* signals = encoded.data();
  for (int64_t i = 0; i < encoded.numel(); ++i) {
    signals[i] = core::quantize_input_signal(pixels[i] * input_scale_, bits_);
  }
  if (engine_ != nullptr) return engine_->predict(encoded);
  return net_.predict(encoded);
}

// ---------------------------------------------------------------------------
// SncBackend
// ---------------------------------------------------------------------------

namespace {
// Seed of the deterministic canary pixels.
constexpr uint64_t kCanarySeed = 12345;
}  // namespace

SncBackend::SncBackend(nn::Network& net, nn::Shape input_chw,
                       const snc::SncConfig& config, int replicas,
                       const ReplicaHealthConfig& health)
    : net_(net), input_chw_(std::move(input_chw)),
      signal_bits_(config.signal_bits), health_(health) {
  // Identically seeded replicas would be bit-identical, so only a
  // fault-diversity deployment programs more than one.
  const bool diverse = health.enabled && health.per_replica_seeds;
  const int n =
      diverse ? std::max(1, replicas > 0 ? replicas : util::num_threads())
              : 1;
  replicas_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Fault-diverse replicas draw independent device faults (see
    // ReplicaHealthConfig::per_replica_seeds).
    snc::SncConfig replica_config = config;
    if (diverse) {
      replica_config.seed =
          nn::Rng::stream_seed(config.seed, static_cast<uint64_t>(i));
    }
    replicas_.push_back(
        std::make_unique<snc::SncSystem>(net, input_chw_, replica_config));
    healthy_.push_back(static_cast<size_t>(i));
  }
  health_counters_.enabled = health_.enabled;
  health_counters_.replicas = n;
  health_counters_.healthy = n;

  if (health_.enabled) {
    // Deterministic canary pixels and their known-good predictions from an
    // ideal-device system (no variation, no defects, no recovery) built
    // from the same deployed network.
    nn::Rng canary_rng(kCanarySeed);
    const int canaries = std::max(1, health_.canary_images);
    for (int i = 0; i < canaries; ++i) {
      nn::Tensor image(input_chw_);
      for (int64_t j = 0; j < image.numel(); ++j) {
        image[j] = canary_rng.uniform();
      }
      canary_.push_back(std::move(image));
    }
    snc::SncConfig ideal = config;
    ideal.device.variation_sigma = 0.0;
    ideal.device.stuck_off_rate = 0.0;
    ideal.device.stuck_on_rate = 0.0;
    ideal.recovery = snc::FaultRecoveryConfig{};
    snc::SncSystem reference(net, input_chw_, ideal);
    canary_reference_ = canary_predictions(reference);
  }
}

std::vector<int64_t> SncBackend::canary_predictions(
    snc::SncSystem& system) const {
  std::vector<int64_t> predictions;
  predictions.reserve(canary_.size());
  for (const nn::Tensor& image : canary_) {
    predictions.push_back(system.infer(image));
  }
  return predictions;
}

void SncBackend::run_health_check() {
  // Runs once, from the batcher thread at the first window — after the
  // serving layer has installed its quarantine hook. Only this thread
  // reads healthy_; stats readers see the counters under health_mu_.
  healthy_.clear();
  std::vector<size_t> quarantined;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (canary_predictions(*replicas_[i]) == canary_reference_) {
      healthy_.push_back(i);
    } else {
      quarantined.push_back(i);
    }
  }
  {
    std::lock_guard<std::mutex> health_lock(health_mu_);
    health_counters_.canary_runs += health_counters_.replicas;
    health_counters_.healthy = static_cast<int64_t>(healthy_.size());
    health_counters_.quarantined =
        static_cast<int64_t>(quarantined.size());
  }
  if (quarantine_hook_) {
    for (const size_t i : quarantined) quarantine_hook_(i, "canary deviation");
  }
}

std::vector<int64_t> SncBackend::infer_fallback(const nn::Tensor& batch) {
  if (!fallback_) {
    fallback_ = std::make_unique<QuantBackend>(net_, input_chw_, signal_bits_);
  }
  return fallback_->infer_batch(batch);
}

std::vector<int64_t> SncBackend::infer_batch(const nn::Tensor& batch) {
  if (health_.enabled) {
    if (!checked_) {
      run_health_check();
      checked_ = true;
    }
    const auto healthy = static_cast<double>(healthy_.size());
    const auto total = static_cast<double>(replicas_.size());
    if (healthy_.empty() || healthy / total < health_.min_healthy_fraction) {
      // Degradation ladder: too few trustworthy replicas left — serve the
      // batch from the quant path over the same deployed network and flag
      // it, rather than serving from an empty (or untrusted) pool.
      last_degraded_ = true;
      {
        std::lock_guard<std::mutex> health_lock(health_mu_);
        ++health_counters_.degraded_batches;
      }
      return infer_fallback(batch);
    }
  }
  last_degraded_ = false;
  check_batch_shape(batch, input_chw_);
  // The whole micro-batch window runs on one replica through
  // SncSystem::infer_batch, so each stage's conductance panel is streamed
  // once per window instead of once per image. The activity report needs
  // per-image stats, so a served window also pays the per-stage timer (a
  // few clock reads per position tile). The stats vector is the calling
  // thread's and is reused, so a steady-state window allocates only its
  // predictions.
  snc::SncSystem& system = *replicas_[healthy_[windows_++ % healthy_.size()]];
  thread_local std::vector<snc::SncStats> stats;
  std::vector<int64_t> predictions = system.infer_batch(batch, &stats);
  // Fold stats image by image: a batched window contributes B images of
  // input_events/spikes/occupied_slots, keeping the activity report's
  // per-image averages comparable with single-image serving.
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const snc::SncStats& s : stats) totals_.add(s);
  stat_images_ += static_cast<int64_t>(stats.size());
  return predictions;
}

ReplicaHealthSnapshot SncBackend::health_snapshot() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_counters_;
}

snc::SncStats SncBackend::activity_totals(int64_t* images) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (images != nullptr) *images = stat_images_;
  return totals_;
}

std::string snc_activity_tables(const snc::SncStats& totals, int64_t images,
                                const snc::FaultReport& faults,
                                const std::string& fault_title) {
  std::string out;
  if (images > 0) {
    report::Table table({"stage", "rows", "cols", "events/img", "sparsity",
                         "spikes/img"});
    const double inv = 1.0 / static_cast<double>(images);
    for (size_t s = 0; s < totals.stage.size(); ++s) {
      const snc::SncStageStats& st = totals.stage[s];
      table.add_row(
          {std::to_string(s), std::to_string(st.rows),
           std::to_string(st.cols),
           report::fmt(static_cast<double>(st.input_events) * inv, 1),
           report::pct(st.input_sparsity(), 1),
           report::fmt(static_cast<double>(st.spikes) * inv, 1)});
    }
    out = table.to_string();
  }
  if (faults.cells > 0) {
    report::Table ft({"cells", "retries", "detected", "compensated",
                      "residual", "remapped", "spares left"});
    ft.add_row({std::to_string(faults.cells),
                std::to_string(faults.write_retries),
                std::to_string(faults.faults_detected),
                std::to_string(faults.faults_compensated),
                std::to_string(faults.residual_faults),
                std::to_string(faults.remapped_cols),
                std::to_string(faults.spare_cols_left)});
    if (!out.empty()) out += "\n";
    out += fault_title + ":\n" + ft.to_string();
  }
  return out;
}

std::string SncBackend::activity_report() const {
  int64_t images = 0;
  const snc::SncStats totals = activity_totals(&images);
  snc::FaultReport faults;
  for (const auto& replica : replicas_) {
    faults.add(replica->fault_report());
  }
  std::string out = snc_activity_tables(totals, images, faults,
                                        "fault recovery (all replicas)");
  const ReplicaHealthSnapshot h = health_snapshot();
  if (h.enabled) {
    report::Table ht({"replicas", "healthy", "quarantined", "canaries",
                      "degraded batches"});
    ht.add_row({std::to_string(h.replicas), std::to_string(h.healthy),
                std::to_string(h.quarantined),
                std::to_string(h.canary_runs),
                std::to_string(h.degraded_batches)});
    if (!out.empty()) out += "\n";
    out += "replica health:\n" + ht.to_string();
  }
  return out;
}

}  // namespace qsnc::serve
